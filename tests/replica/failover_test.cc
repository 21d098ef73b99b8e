// The replication tier's acceptance criterion, as a property test over
// the transport fault matrix: under drop / duplicate / reorder / delay /
// truncate (and all of them at once), a standby fed through the faulty
// link converges bit-identically to the primary; when the primary dies,
// the standby promotes behind a durable epoch fence, continues as primary
// producing exactly the states the dead primary would have produced, the
// deposed lineage is permanently fenced, and the surviving witness
// re-attaches to the new lineage and adopts its epoch durably.
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "replica/epoch.h"
#include "replica/replication.h"
#include "replica/transport.h"
#include "replica/wire.h"
#include "serve/ranking_service.h"
#include "stream/streaming_ranker.h"

namespace rpc::replica {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;
using stream::StreamingRanker;
using stream::StreamingRankerOptions;

bool BitEqual(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

Matrix RawFixture(const Orientation& alpha, int n, uint64_t seed) {
  return data::GenerateLatentCurveData(
             alpha, {.n = n, .noise_sigma = 0.05, .control_margin = 0.1,
                     .seed = seed})
      .data;
}

std::string MakeTempDir(const char* tag) {
  std::string templ = std::string("/tmp/rpc_failover_") + tag + "_XXXXXX";
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

StreamingRankerOptions SerialOptions(const std::string& dir) {
  StreamingRankerOptions options;
  options.num_threads = 1;
  options.drift.refit_on_row_delta = 0;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.drift.refit_period_events = 0;
  options.learner.seed = 42;
  options.durability.dir = dir;
  options.durability.segment_bytes = 1 << 10;
  options.durability.snapshot_every_events = 8;
  return options;
}

ReplicaApplierOptions ApplierOptions(const std::string& dir) {
  ReplicaApplierOptions options;
  options.dir = dir;
  options.d = 3;
  options.segment_bytes = 1 << 10;
  options.request_timeout_seconds = 0.02;  // fail fast, retry fast
  options.retry.initial_backoff_seconds = 0.001;
  options.retry.max_backoff_seconds = 0.01;
  options.retry.jitter_fraction = 0.0;
  options.retry.max_attempts = 0;        // unlimited attempts...
  options.retry.deadline_seconds = 60.0;  // ...bounded by wall clock
  options.sleep = [](double) {};
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

class ServeThread {
 public:
  explicit ServeThread(ReplicationSource* source)
      : thread_([source] { (void)source->Serve(); }) {}
  ~ServeThread() {
    if (thread_.joinable()) thread_.join();
  }
  void Join() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

/// Identical deterministic write load, applied to whichever ranker is
/// primary at the time — the crashed/uncrashed comparison depends on both
/// sides seeing byte-for-byte the same ops.
void DriveOps(StreamingRanker* ranker, const Matrix& raw, int from,
              int count) {
  for (int i = from; i < from + count; ++i) {
    Vector row = raw.Row(i % raw.rows());
    for (int j = 0; j < row.size(); ++j) row[j] += 0.01 * (i + 1);
    ASSERT_TRUE(ranker->Append(row).ok());
  }
}

struct FailCase {
  const char* name;
  FaultPlan plan;  // applied to BOTH directions of the standby's link
};

class FailoverTest : public ::testing::TestWithParam<FailCase> {};

TEST_P(FailoverTest, KillPromoteFenceAndReattachStaysBitIdentical) {
  const FaultPlan base_plan = GetParam().plan;
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 40, 7);
  const Matrix probe = RawFixture(alpha, 20, 8);
  const std::string p_dir = MakeTempDir("p");
  const std::string a_dir = MakeTempDir("a");
  const std::string w_dir = MakeTempDir("w");

  // P: the original primary. A: the promotion candidate, fed through the
  // faulty link. W: a witness standby on a clean link — its state is the
  // ground truth for "what a correctly replicated follower holds".
  serve::RankingService p_service;
  StreamingRanker primary(&p_service, "rep", SerialOptions(p_dir));
  ASSERT_TRUE(primary.Start(raw, alpha).ok());
  DriveOps(&primary, raw, 0, 18);
  ASSERT_TRUE(primary.ForceRefresh().ok());
  ASSERT_TRUE(primary.Flush().ok());

  LinkPair pair_a = MakeLoopbackPair();
  FaultPlan plan = base_plan;
  plan.seed = base_plan.seed + 1;
  auto a_standby_link = WrapWithFaults(std::move(pair_a.standby), plan);
  plan.seed = base_plan.seed + 2;
  auto a_primary_link = WrapWithFaults(std::move(pair_a.primary), plan);
  LinkPair pair_w = MakeLoopbackPair();

  ReplicationSourceOptions source_options;
  source_options.dir = p_dir;
  source_options.d = 3;
  source_options.max_batch_records = 4;  // several batches per catch-up
  ReplicationSource source_a(
      a_primary_link.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ReplicationSource source_w(
      pair_w.primary.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ServeThread serving_a(&source_a);
  ServeThread serving_w(&source_w);

  serve::RankingService a_service;
  StreamingRanker candidate(&a_service, "rep", SerialOptions(a_dir));
  ReplicaApplier applier_a(&candidate, a_standby_link.get(),
                           ApplierOptions(a_dir));
  StreamingRanker witness(nullptr, "rep", SerialOptions(w_dir));
  ReplicaApplier applier_w(&witness, pair_w.standby.get(),
                           ApplierOptions(w_dir));
  ASSERT_TRUE(applier_a.Init().ok());
  ASSERT_TRUE(applier_w.Init().ok());

  // Catch both up twice with live writes in between: the faulty link must
  // deliver the same replicated truth as the clean one, at every acked
  // offset — bit for bit.
  for (int round = 0; round < 2; ++round) {
    const std::uint64_t tip = primary.wal_synced_seq();
    ASSERT_TRUE(applier_a.CatchUpTo(tip).ok()) << GetParam().name;
    ASSERT_TRUE(applier_w.CatchUpTo(tip).ok());
    EXPECT_EQ(applier_a.durable_seq(), tip);
    EXPECT_EQ(applier_w.durable_seq(), tip);
    ExpectSnapshotsBitIdentical(candidate.snapshot(), primary.snapshot(),
                                "candidate vs primary");
    ExpectSnapshotsBitIdentical(candidate.snapshot(), witness.snapshot(),
                                "candidate vs witness");
    if (round == 0) {
      DriveOps(&primary, raw, 18, 8);
      ASSERT_TRUE(primary.ForceRefresh().ok());
      ASSERT_TRUE(primary.Flush().ok());
    }
  }
  const auto a_version = a_service.DatasetVersion("rep");
  const auto p_version = p_service.DatasetVersion("rep");
  ASSERT_TRUE(a_version.ok() && p_version.ok());
  EXPECT_EQ(*a_version, *p_version);

  // --- The primary dies. ---
  // A's feed goes dark; its link is torn down (Serve() on the source side
  // exits once the link closes).
  a_standby_link->Close();
  serving_a.Join();
  EXPECT_TRUE(candidate.is_follower());

  // Fenced promotion: epoch 2 lands on A's disk before the ranker takes
  // over, so even a crash mid-promotion leaves the fence standing.
  ASSERT_TRUE(applier_a.Promote().ok());
  EXPECT_EQ(applier_a.epoch(), 2u);
  {
    const auto persisted = LoadEpoch(a_dir);
    ASSERT_TRUE(persisted.ok());
    EXPECT_EQ(*persisted, 2u);
  }
  EXPECT_FALSE(candidate.is_follower());

  // The deposed primary is fenced the instant the new lineage speaks to
  // it: a single epoch-2 request permanently stops its source.
  Message probe_request;
  probe_request.type = MessageType::kCatchUpRequest;
  probe_request.epoch = 2;
  probe_request.a = applier_w.durable_seq();
  probe_request.b = 1;
  ASSERT_TRUE(pair_w.standby->Send(EncodeMessage(probe_request)).ok());
  const auto fenced_reply = pair_w.standby->Receive(1.0);
  ASSERT_TRUE(fenced_reply.ok());
  const auto fenced = DecodeMessage(*fenced_reply);
  ASSERT_TRUE(fenced.ok());
  EXPECT_EQ(fenced->type, MessageType::kFenced);
  EXPECT_EQ(fenced->a, 2u);
  serving_w.Join();  // Serve() returned kAborted: fenced is terminal
  EXPECT_TRUE(source_w.fenced());

  // The promoted candidate continues the write history. The dead primary's
  // ranker object doubles as the uncrashed reference replica: feeding both
  // the identical suffix must produce bit-identical states — promotion
  // lost nothing and changed nothing.
  DriveOps(&candidate, raw, 26, 8);
  DriveOps(&primary, raw, 26, 8);
  ASSERT_TRUE(candidate.ForceRefresh().ok());
  ASSERT_TRUE(primary.ForceRefresh().ok());
  ASSERT_TRUE(candidate.Flush().ok());
  ASSERT_TRUE(primary.Flush().ok());
  ExpectSnapshotsBitIdentical(candidate.snapshot(), primary.snapshot(),
                              "promoted vs never-crashed");
  {
    const auto got = a_service.Query("rep", probe);
    const auto want = p_service.Query("rep", probe);
    ASSERT_TRUE(got.ok() && want.ok());
    for (int i = 0; i < probe.rows(); ++i) {
      EXPECT_TRUE(BitEqual(got->scores[i], want->scores[i])) << "probe " << i;
    }
  }

  // The witness re-attaches to the new lineage (a restart, as after any
  // feed loss): it resumes from its own durable offset, adopts epoch 2
  // durably, and converges on the new primary — the replication chain
  // survives the failover end to end.
  witness.Stop();
  {
    LinkPair pair2 = MakeLoopbackPair();
    ReplicationSourceOptions new_source_options;
    new_source_options.dir = a_dir;
    new_source_options.d = 3;
    new_source_options.epoch = 2;
    new_source_options.max_batch_records = 4;
    ReplicationSource source2(
        pair2.primary.get(), [&] { return candidate.wal_synced_seq(); },
        new_source_options);
    ServeThread serving2(&source2);
    StreamingRanker witness2(nullptr, "rep", SerialOptions(w_dir));
    ReplicaApplier applier2(&witness2, pair2.standby.get(),
                            ApplierOptions(w_dir));
    ASSERT_TRUE(applier2.Init().ok());
    EXPECT_TRUE(applier2.has_state());  // resumed, not re-bootstrapped
    ASSERT_TRUE(applier2.CatchUpTo(candidate.wal_synced_seq()).ok());
    EXPECT_EQ(applier2.epoch(), 2u);
    const auto adopted = LoadEpoch(w_dir);
    ASSERT_TRUE(adopted.ok());
    EXPECT_EQ(*adopted, 2u);
    ExpectSnapshotsBitIdentical(witness2.snapshot(), candidate.snapshot(),
                                "re-attached witness vs new primary");
    pair2.standby->Close();
    witness2.Stop();
  }

  primary.Stop();
  candidate.Stop();
  RemoveDir(p_dir);
  RemoveDir(a_dir);
  RemoveDir(w_dir);
}

FailCase Case(const char* name, double drop, double duplicate, double reorder,
              double delay, double truncate) {
  FailCase fail_case;
  fail_case.name = name;
  fail_case.plan.drop = drop;
  fail_case.plan.duplicate = duplicate;
  fail_case.plan.reorder = reorder;
  fail_case.plan.delay = delay;
  fail_case.plan.truncate = truncate;
  fail_case.plan.seed = 97;
  return fail_case;
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, FailoverTest,
    ::testing::Values(Case("none", 0, 0, 0, 0, 0),
                      Case("drop", 0.3, 0, 0, 0, 0),
                      Case("duplicate", 0, 0.4, 0, 0, 0),
                      Case("reorder", 0, 0, 0.4, 0, 0),
                      Case("delay", 0, 0, 0, 0.4, 0),
                      Case("truncate", 0, 0, 0, 0, 0.3),
                      Case("everything", 0.15, 0.15, 0.15, 0.15, 0.1)),
    [](const ::testing::TestParamInfo<FailCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace rpc::replica
