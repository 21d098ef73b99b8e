// The durable tier's acceptance criterion: kill the process at any of the
// fault-injection points and Recover() must rebuild the exact pre-crash
// state — same row ids, bit-identical normalizer statistics and scores,
// the same served model version — losing no acknowledged event. After
// resubmitting whatever was never acknowledged, the recovered ranker must
// be indistinguishable, bit for bit, from a replica that never crashed.
//
// All rankers here run fully serial (num_threads = 1: every pool task is
// inline), so a run is a deterministic function of its op sequence and the
// crashed/uncrashed comparison is exact rather than statistical.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "durable/fault_injector.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"
#include "stream/streaming_ranker.h"

namespace rpc::stream {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Matrix RawFixture(const Orientation& alpha, int n, uint64_t seed) {
  return data::GenerateLatentCurveData(
             alpha, {.n = n, .noise_sigma = 0.05, .control_margin = 0.1,
                     .seed = seed})
      .data;
}

/// One deterministic mutation op, shared verbatim by the crashing ranker
/// and the never-crashed reference.
struct Op {
  enum class Kind { kAppend, kRetire };
  Kind kind = Kind::kAppend;
  Vector row;               // kAppend
  std::int64_t row_id = 0;  // kRetire, or the id an append must receive
};

std::string MakeTempDir(const char* tag) {
  std::string templ = std::string("/tmp/rpc_recovery_") + tag + "_XXXXXX";
  std::vector<char> buffer(templ.begin(), templ.end());
  buffer.push_back('\0');
  const char* dir = ::mkdtemp(buffer.data());
  EXPECT_NE(dir, nullptr);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to,
                        std::filesystem::copy_options::recursive, ec);
  ASSERT_FALSE(ec) << ec.message();
}

StreamingRankerOptions SerialOptions() {
  StreamingRankerOptions options;
  options.num_threads = 1;  // fully inline: deterministic op sequencing
  options.drift.refit_on_row_delta = 0;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.drift.refit_period_events = 0;
  options.learner.seed = 42;
  return options;
}

void ExpectSnapshotsBitIdentical(const StreamingRanker::Snapshot& got,
                                 const StreamingRanker::Snapshot& want,
                                 const char* where) {
  EXPECT_EQ(got.version, want.version) << where;
  EXPECT_EQ(got.model.Serialize(), want.model.Serialize()) << where;
  EXPECT_EQ(got.row_ids, want.row_ids) << where;
  ASSERT_EQ(got.scores.size(), want.scores.size()) << where;
  for (int i = 0; i < got.scores.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.scores[i], want.scores[i]))
        << where << ": score " << i;
  }
  ASSERT_EQ(got.live_mins.size(), want.live_mins.size()) << where;
  for (int j = 0; j < got.live_mins.size(); ++j) {
    EXPECT_TRUE(BitEqual(got.live_mins[j], want.live_mins[j]))
        << where << ": min " << j;
    EXPECT_TRUE(BitEqual(got.live_maxs[j], want.live_maxs[j]))
        << where << ": max " << j;
  }
}

void ExpectServedScoresMatch(serve::RankingService* got_service,
                             serve::RankingService* want_service,
                             const std::string& dataset, const Matrix& probe,
                             const char* where) {
  const auto got_version = got_service->DatasetVersion(dataset);
  const auto want_version = want_service->DatasetVersion(dataset);
  ASSERT_TRUE(got_version.ok() && want_version.ok()) << where;
  EXPECT_EQ(*got_version, *want_version) << where;
  const auto got = got_service->Query(dataset, probe);
  const auto want = want_service->Query(dataset, probe);
  ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
  ASSERT_TRUE(want.ok()) << where;
  for (int i = 0; i < probe.rows(); ++i) {
    EXPECT_TRUE(BitEqual(got->scores[i], want->scores[i]))
        << where << ": probe row " << i;
  }
}

// The full kill-and-recover property, parameterised over the fault matrix.
class DurableRecoveryTest
    : public ::testing::TestWithParam<durable::FailPoint> {};

TEST_P(DurableRecoveryTest, KillRecoverResubmitMatchesUncrashedReplica) {
  const durable::FailPoint fail_point = GetParam();
  const bool log_fault =
      fail_point == durable::FailPoint::kTornTailWrite ||
      fail_point == durable::FailPoint::kChecksumFlip;

  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const int n0 = 40;
  const Matrix raw = RawFixture(alpha, n0, 7);
  const Matrix probe = RawFixture(alpha, 25, 8);

  // Bound-touching retirement: the row holding attribute 0's minimum, so
  // the rescan path (and its kBounds integrity record) is exercised.
  std::int64_t min_row = 0;
  for (int i = 1; i < n0; ++i) {
    if (raw(i, 0) < raw(static_cast<int>(min_row), 0)) min_row = i;
  }

  // Acknowledged prefix: appends, an interior retire, the boundary retire,
  // and a retire-miss — every event shape the log records. With milestone
  // snapshots every 5 events, the boundary retire (event 11) and the miss
  // (event 12) land AFTER the last prefix snapshot (event 10), so recovery
  // replays them from the log — including the kBounds integrity record the
  // boundary rescan wrote.
  std::vector<Op> prefix;
  for (int i = 0; i < 9; ++i) {
    Vector row = raw.Row(i % n0);
    for (int j = 0; j < row.size(); ++j) row[j] += 0.01 * (i + 1);
    prefix.push_back({Op::Kind::kAppend, std::move(row),
                      static_cast<std::int64_t>(n0 + i)});
  }
  prefix.push_back({Op::Kind::kRetire, Vector(), 5});
  prefix.push_back({Op::Kind::kRetire, Vector(), min_row});
  prefix.push_back({Op::Kind::kRetire, Vector(), 999999});  // a miss

  // Unacknowledged suffix: appended after the failpoint arms, never
  // Flush-acknowledged. One row stretches every upper bound. For log
  // faults the first suffix sync is the crash, and the suffix stays short
  // of the next snapshot cadence point so nothing durable runs after the
  // "kill"; for snapshot faults the crash IS that cadence point (event
  // 15), so the suffix must reach it.
  const int suffix_len = log_fault ? 2 : 3;
  std::vector<Op> suffix;
  for (int i = 0; i < suffix_len; ++i) {
    Vector row = raw.Row((3 * i) % n0);
    for (int j = 0; j < row.size(); ++j) {
      row[j] += i == 1 ? 1.5 : -0.02 * (i + 1);
    }
    suffix.push_back({Op::Kind::kAppend, std::move(row),
                      static_cast<std::int64_t>(n0 + 9 + i)});
  }

  const std::string live_dir = MakeTempDir("live");
  const std::string crash_dir = MakeTempDir("crash");
  RemoveDir(crash_dir);  // CopyDir recreates it as an exact image

  // A background cold refit at event 11, after the last prefix snapshot,
  // puts a kPublishCold record into the log every failpoint replays.
  StreamingRankerOptions base_options = SerialOptions();
  base_options.drift.cold_refit_period_events = 11;

  auto injector = std::make_shared<durable::FaultInjector>();
  StreamingRankerOptions durable_options = base_options;
  durable_options.durability.dir = live_dir;
  durable_options.durability.segment_bytes = 1 << 12;
  durable_options.durability.snapshot_every_events = 5;
  durable_options.durability.injector = injector;

  // The reference's served version after each count of processed events,
  // from the acknowledgment boundary on.
  std::map<std::int64_t, std::uint64_t> reference_versions;
  const auto record_version = [&](const StreamingRanker& ranker) {
    reference_versions[ranker.stats().events_processed] =
        ranker.snapshot().version;
  };

  serve::RankingService crashed_service;
  serve::RankingService reference_service;
  StreamingRanker reference(&reference_service, "live", base_options);
  ASSERT_TRUE(reference.Start(raw, alpha).ok());

  {
    StreamingRanker crashed(&crashed_service, "live", durable_options);
    ASSERT_TRUE(crashed.Start(raw, alpha).ok());

    const auto drive = [&](StreamingRanker* ranker,
                           const std::vector<Op>& ops) {
      for (const Op& op : ops) {
        if (op.kind == Op::Kind::kAppend) {
          const auto id = ranker->Append(op.row);
          ASSERT_TRUE(id.ok());
          EXPECT_EQ(*id, op.row_id);
        } else {
          ASSERT_TRUE(ranker->Retire(op.row_id).ok());
        }
      }
    };
    drive(&crashed, prefix);
    drive(&reference, prefix);
    ASSERT_TRUE(crashed.ForceRefresh().ok());  // a logged publish
    ASSERT_TRUE(reference.ForceRefresh().ok());
    ASSERT_TRUE(crashed.Flush().ok());  // the acknowledgment boundary
    ASSERT_TRUE(reference.Flush().ok());
    ASSERT_EQ(reference.stats().cold_refits, 1);  // the acked cold publish
    record_version(reference);

    injector->Arm(fail_point, 1);
    drive(&crashed, suffix);
    for (const Op& op : suffix) {
      drive(&reference, {op});
      record_version(reference);
    }
    EXPECT_TRUE(injector->crashed())
        << durable::FailPointName(fail_point) << " never fired";
    EXPECT_GT(crashed.stats().durable_errors, 0);

    // kill -9: freeze the on-disk state as of this instant. The crashed
    // ranker's destructor still runs (this is one process), but against
    // the original directory — the image is the crash truth.
    CopyDir(live_dir, crash_dir);
  }

  StreamingRankerOptions recover_options = base_options;
  recover_options.durability.dir = crash_dir;
  recover_options.durability.segment_bytes = 1 << 12;
  recover_options.durability.snapshot_every_events = 5;

  serve::RankingService recovered_service;
  StreamingRanker recovered(&recovered_service, "live", recover_options);
  ASSERT_TRUE(recovered.Recover().ok());

  const StreamingRanker::RecoveryInfo info = recovered.recovery_info();
  EXPECT_TRUE(info.recovered);
  EXPECT_FALSE(info.snapshot_path.empty());
  if (log_fault) {
    // The suffix record died mid-write (or rotted): its torn remains must
    // have been detected and cut.
    EXPECT_TRUE(info.tail_truncated);
  }
  // The served version survived the crash exactly: the one the uncrashed
  // replica served after the same events (at least the acknowledged
  // ForceRefresh's publish).
  const auto want_version =
      reference_versions.find(recovered.stats().events_processed);
  ASSERT_NE(want_version, reference_versions.end());
  EXPECT_EQ(info.recovered_version, want_version->second);
  const auto served_version = recovered_service.DatasetVersion("live");
  ASSERT_TRUE(served_version.ok());
  EXPECT_EQ(*served_version, want_version->second);
  // The cold publish came back through replay: snapshots do not carry the
  // cold_refits counter, so only a replayed kPublishCold record sets it.
  EXPECT_GE(recovered.stats().cold_refits, 1);

  // No acknowledged event may be missing: every prefix append is present,
  // both retires absent, exactly as acknowledged.
  {
    const StreamingRanker::Snapshot snap = recovered.snapshot();
    const std::set<std::int64_t> ids(snap.row_ids.begin(),
                                     snap.row_ids.end());
    for (const Op& op : prefix) {
      if (op.kind == Op::Kind::kAppend) {
        EXPECT_TRUE(ids.count(op.row_id)) << "lost acked append "
                                          << op.row_id;
      } else if (op.row_id < n0) {
        EXPECT_FALSE(ids.count(op.row_id))
            << "acked retire " << op.row_id << " resurrected";
      }
    }
  }

  // Resubmit whatever the crash swallowed (the client's contract for
  // never-acknowledged events). Row ids must come back out identical.
  {
    const StreamingRanker::Snapshot snap = recovered.snapshot();
    const std::set<std::int64_t> ids(snap.row_ids.begin(),
                                     snap.row_ids.end());
    for (const Op& op : suffix) {
      if (ids.count(op.row_id)) continue;  // survived in the log
      const auto id = recovered.Append(op.row);
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, op.row_id);
    }
  }
  ASSERT_TRUE(recovered.Flush().ok());
  ASSERT_TRUE(reference.Flush().ok());

  // The recovered ranker is now bit-indistinguishable from the replica
  // that never crashed: state, served scores, and the next refresh.
  ExpectSnapshotsBitIdentical(recovered.snapshot(), reference.snapshot(),
                              "post-recovery");
  ExpectServedScoresMatch(&recovered_service, &reference_service, "live",
                          probe, "post-recovery");
  const StreamStats got = recovered.stats();
  const StreamStats want = reference.stats();
  EXPECT_EQ(got.appended, want.appended);
  EXPECT_EQ(got.retired, want.retired);
  EXPECT_EQ(got.retire_misses, want.retire_misses);
  EXPECT_EQ(got.events_processed, want.events_processed);
  EXPECT_EQ(got.refreshes, want.refreshes);
  EXPECT_EQ(got.rows, want.rows);
  EXPECT_EQ(got.version, want.version);

  ASSERT_TRUE(recovered.ForceRefresh().ok());
  ASSERT_TRUE(reference.ForceRefresh().ok());
  ExpectSnapshotsBitIdentical(recovered.snapshot(), reference.snapshot(),
                              "post-recovery refresh");
  ExpectServedScoresMatch(&recovered_service, &reference_service, "live",
                          probe, "post-recovery refresh");

  recovered.Stop();
  reference.Stop();
  RemoveDir(live_dir);
  RemoveDir(crash_dir);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, DurableRecoveryTest,
    ::testing::Values(durable::FailPoint::kTornTailWrite,
                      durable::FailPoint::kChecksumFlip,
                      durable::FailPoint::kPartialSnapshot,
                      durable::FailPoint::kCrashBetweenFsyncAndRename),
    [](const ::testing::TestParamInfo<durable::FailPoint>& info) {
      return durable::FailPointName(info.param);
    });

TEST(DurableRecoveryLifecycleTest, CleanStopThenRecoverReplaysNothing) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1});
  const Matrix raw = RawFixture(alpha, 30, 11);
  const std::string dir = MakeTempDir("clean");

  StreamingRankerOptions options = SerialOptions();
  options.durability.dir = dir;
  options.durability.snapshot_every_events = 0;  // only Start/Stop snapshots

  StreamingRanker::Snapshot final_state;
  {
    StreamingRanker ranker(nullptr, "live", options);
    ASSERT_TRUE(ranker.Start(raw, alpha).ok());
    for (int i = 0; i < 7; ++i) {
      Vector row = raw.Row(i);
      for (int j = 0; j < row.size(); ++j) row[j] += 0.05;
      ASSERT_TRUE(ranker.Append(row).ok());
    }
    ASSERT_TRUE(ranker.Retire(2).ok());
    ASSERT_TRUE(ranker.ForceRefresh().ok());
    ranker.Stop();  // final sync + clean-shutdown snapshot
    final_state = ranker.snapshot();
  }

  StreamingRanker recovered(nullptr, "live", options);
  ASSERT_TRUE(recovered.Recover().ok());
  const StreamingRanker::RecoveryInfo info = recovered.recovery_info();
  EXPECT_TRUE(info.recovered);
  // The shutdown snapshot covered every record: bounded replay at its best.
  EXPECT_EQ(info.replayed_records, 0u);
  EXPECT_FALSE(info.tail_truncated);
  EXPECT_EQ(info.snapshot_fallbacks, 0);
  ExpectSnapshotsBitIdentical(recovered.snapshot(), final_state,
                              "clean restart");

  // The recovered ranker is fully live: it ingests and refreshes.
  ASSERT_TRUE(recovered.Append(raw.Row(3)).ok());
  ASSERT_TRUE(recovered.ForceRefresh().ok());
  EXPECT_EQ(recovered.snapshot().version, final_state.version + 1);
  recovered.Stop();
  RemoveDir(dir);
}

TEST(DurableRecoveryLifecycleTest, RecoverGuardsItsPreconditions) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix raw = RawFixture(alpha, 20, 13);

  {
    // No durability configured.
    StreamingRanker ranker(nullptr, "live", SerialOptions());
    EXPECT_FALSE(ranker.Recover().ok());
  }
  {
    // An empty directory holds nothing to recover from.
    const std::string dir = MakeTempDir("empty");
    StreamingRankerOptions options = SerialOptions();
    options.durability.dir = dir;
    StreamingRanker ranker(nullptr, "live", options);
    EXPECT_FALSE(ranker.Recover().ok());
    RemoveDir(dir);
  }
  {
    // Recover after Start is a double-start.
    const std::string dir = MakeTempDir("started");
    StreamingRankerOptions options = SerialOptions();
    options.durability.dir = dir;
    StreamingRanker ranker(nullptr, "live", options);
    ASSERT_TRUE(ranker.Start(raw, alpha).ok());
    EXPECT_FALSE(ranker.Recover().ok());
    ranker.Stop();
    RemoveDir(dir);
  }
}

}  // namespace
}  // namespace rpc::stream
