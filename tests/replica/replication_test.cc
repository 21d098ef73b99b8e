// The replication session layer end to end: a stateless standby
// bootstraps from a shipped snapshot, streams the WAL tail in bounded
// batches, and is bit-identical to the primary at every acked offset; a
// crashed standby resumes from its own durable dir; a standby that fell
// behind compaction gets a fresh snapshot re-shipped mid-stream; epoch
// fencing rejects deposed lineages in both directions; and a standby that
// loses its feed degrades to read-only serving with honest staleness.
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
#include "durable/event_log.h"
#include "durable/snapshot.h"
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
  std::string templ = std::string("/tmp/rpc_replica_") + tag + "_XXXXXX";
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
  options.num_threads = 1;  // fully inline: deterministic event sequencing
  options.drift.refit_on_row_delta = 0;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.drift.refit_period_events = 0;
  options.learner.seed = 42;
  options.durability.dir = dir;
  options.durability.segment_bytes = 1 << 10;
  options.durability.snapshot_every_events = 8;
  return options;
}

/// Test-friendly applier options: tiny backoffs, no jitter, a sleep that
/// never really sleeps — the schedule itself is covered by retry_test.
ReplicaApplierOptions ApplierOptions(const std::string& dir) {
  ReplicaApplierOptions options;
  options.dir = dir;
  options.d = 3;
  options.segment_bytes = 1 << 10;
  options.request_timeout_seconds = 0.25;
  options.retry.initial_backoff_seconds = 0.001;
  options.retry.max_backoff_seconds = 0.01;
  options.retry.jitter_fraction = 0.0;
  options.retry.max_attempts = 40;
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

/// Runs a source's Serve() loop on its own thread (the applier's PumpOnce
/// blocks on the reply, so request and answer must overlap). Closing the
/// standby-side link makes Serve return and the thread joinable.
class ServeThread {
 public:
  explicit ServeThread(ReplicationSource* source)
      : thread_([source] { (void)source->Serve(); }) {}
  ~ServeThread() {
    if (thread_.joinable()) thread_.join();
  }

 private:
  std::thread thread_;
};

void DrivePrimary(StreamingRanker* primary, const Matrix& raw, int from,
                  int count) {
  for (int i = from; i < from + count; ++i) {
    Vector row = raw.Row(i % raw.rows());
    for (int j = 0; j < row.size(); ++j) row[j] += 0.01 * (i + 1);
    ASSERT_TRUE(primary->Append(row).ok());
  }
  ASSERT_TRUE(primary->Flush().ok());
}

TEST(ReplicationTest, StatelessStandbyBootstrapsAndTracksBitIdentically) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 40, 7);
  const Matrix probe = RawFixture(alpha, 25, 8);
  const std::string primary_dir = MakeTempDir("primary");
  const std::string standby_dir = MakeTempDir("standby");

  serve::RankingService primary_service;
  StreamingRanker primary(&primary_service, "rep", SerialOptions(primary_dir));
  ASSERT_TRUE(primary.Start(raw, alpha).ok());
  DrivePrimary(&primary, raw, 0, 20);
  ASSERT_TRUE(primary.ForceRefresh().ok());
  ASSERT_TRUE(primary.Flush().ok());

  LinkPair pair = MakeLoopbackPair();
  ReplicationSourceOptions source_options;
  source_options.dir = primary_dir;
  source_options.d = 3;
  source_options.max_batch_records = 4;  // force multi-batch streaming
  ReplicationSource source(
      pair.primary.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ServeThread serving(&source);

  serve::RankingService standby_service;
  StreamingRanker standby(&standby_service, "rep", SerialOptions(standby_dir));
  ReplicaApplier applier(&standby, pair.standby.get(),
                         ApplierOptions(standby_dir));
  ASSERT_TRUE(applier.Init().ok());
  EXPECT_FALSE(applier.has_state());

  const std::uint64_t target = primary.wal_synced_seq();
  ASSERT_GT(target, 0u);
  ASSERT_TRUE(applier.CatchUpTo(target).ok());

  // Bootstrap shape: exactly one snapshot (the Start state is never in the
  // log), then the tail in several capped batches.
  EXPECT_TRUE(applier.has_state());
  EXPECT_EQ(applier.durable_seq(), target);
  EXPECT_EQ(source.snapshots_shipped(), 1);
  EXPECT_GE(source.batches_shipped(), 2);
  // Requests carry the durable offset, so by the final exchange the source
  // has seen everything but the last batch acked.
  EXPECT_LT(source.acked_seq(), target);
  EXPECT_GT(source.acked_seq(), 0u);
  EXPECT_TRUE(standby.is_follower());

  ExpectSnapshotsBitIdentical(standby.snapshot(), primary.snapshot(),
                              "bootstrap");

  // The standby serves the replicated model through the same service
  // surface as the primary — same version, bit-identical scores.
  {
    const auto got_version = standby_service.DatasetVersion("rep");
    const auto want_version = primary_service.DatasetVersion("rep");
    ASSERT_TRUE(got_version.ok() && want_version.ok());
    EXPECT_EQ(*got_version, *want_version);
    const auto got = standby_service.Query("rep", probe);
    const auto want = primary_service.Query("rep", probe);
    ASSERT_TRUE(got.ok() && want.ok());
    for (int i = 0; i < probe.rows(); ++i) {
      EXPECT_TRUE(BitEqual(got->scores[i], want->scores[i])) << "probe " << i;
    }
  }

  // Keep writing on the primary; the standby tracks the moving tip, and
  // the next request acks the previously synced offset.
  DrivePrimary(&primary, raw, 20, 15);
  ASSERT_TRUE(primary.ForceRefresh().ok());
  ASSERT_TRUE(primary.Flush().ok());
  const std::uint64_t tip = primary.wal_synced_seq();
  ASSERT_GT(tip, target);
  ASSERT_TRUE(applier.CatchUpTo(tip).ok());
  EXPECT_EQ(applier.durable_seq(), tip);
  EXPECT_EQ(source.snapshots_shipped(), 1);  // still just the bootstrap
  EXPECT_GE(source.acked_seq(), target);
  EXPECT_EQ(applier.primary_synced_seq(), tip);
  ExpectSnapshotsBitIdentical(standby.snapshot(), primary.snapshot(),
                              "tracking");

  // A caught-up pump is a clean heartbeat: no progress, no error, and the
  // staleness clock rearms.
  ASSERT_TRUE(applier.PumpOnce().ok());
  EXPECT_EQ(applier.durable_seq(), tip);
  EXPECT_LT(applier.staleness_seconds(), 1.0);
  EXPECT_FALSE(applier.feed_lost());

  // Followers refuse writes: replication is the only mutation path.
  EXPECT_EQ(standby.Append(raw.Row(0)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(standby.Retire(1).code(), StatusCode::kFailedPrecondition);

  pair.standby->Close();
  primary.Stop();
  standby.Stop();
  RemoveDir(primary_dir);
  RemoveDir(standby_dir);
}

TEST(ReplicationTest, CrashedStandbyResumesFromItsOwnDurableState) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 40, 7);
  const std::string primary_dir = MakeTempDir("primary");
  const std::string standby_dir = MakeTempDir("standby");

  StreamingRankerOptions primary_options = SerialOptions(primary_dir);
  primary_options.durability.keep_snapshots = 4;
  primary_options.durability.wal_keep_events = 1 << 20;  // no compaction
  StreamingRanker primary(nullptr, "rep", primary_options);
  ASSERT_TRUE(primary.Start(raw, alpha).ok());
  DrivePrimary(&primary, raw, 0, 12);

  std::uint64_t resumed_from = 0;
  {
    LinkPair pair = MakeLoopbackPair();
    ReplicationSourceOptions source_options;
    source_options.dir = primary_dir;
    source_options.d = 3;
    ReplicationSource source(
        pair.primary.get(), [&] { return primary.wal_synced_seq(); },
        source_options);
    ServeThread serving(&source);

    StreamingRanker standby(nullptr, "rep", SerialOptions(standby_dir));
    ReplicaApplier applier(&standby, pair.standby.get(),
                           ApplierOptions(standby_dir));
    ASSERT_TRUE(applier.Init().ok());
    ASSERT_TRUE(applier.CatchUpTo(primary.wal_synced_seq()).ok());
    resumed_from = applier.durable_seq();
    ASSERT_GT(resumed_from, 0u);
    pair.standby->Close();
    standby.Stop();
    // Applier, ranker and link die here — the standby "crashed". Its dir
    // survives and is the only thing the resume below may rely on.
  }

  // The primary keeps moving while the standby is down.
  DrivePrimary(&primary, raw, 12, 10);
  const std::uint64_t tip = primary.wal_synced_seq();
  ASSERT_GT(tip, resumed_from);

  LinkPair pair = MakeLoopbackPair();
  ReplicationSourceOptions source_options;
  source_options.dir = primary_dir;
  source_options.d = 3;
  ReplicationSource source(
      pair.primary.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ServeThread serving(&source);

  StreamingRanker standby(nullptr, "rep", SerialOptions(standby_dir));
  ReplicaApplier applier(&standby, pair.standby.get(),
                         ApplierOptions(standby_dir));
  ASSERT_TRUE(applier.Init().ok());
  // Init rebuilt the follower from local disk: state present, offset at
  // exactly what was durable before the crash — no snapshot needed.
  EXPECT_TRUE(applier.has_state());
  EXPECT_EQ(applier.durable_seq(), resumed_from);

  ASSERT_TRUE(applier.CatchUpTo(tip).ok());
  EXPECT_EQ(applier.durable_seq(), tip);
  EXPECT_EQ(source.snapshots_shipped(), 0);  // pure log catch-up
  ExpectSnapshotsBitIdentical(standby.snapshot(), primary.snapshot(),
                              "resume");

  pair.standby->Close();
  primary.Stop();
  standby.Stop();
  RemoveDir(primary_dir);
  RemoveDir(standby_dir);
}

TEST(ReplicationTest, CompactionBehindAStandbyForcesASnapshotReship) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 40, 7);
  const std::string primary_dir = MakeTempDir("primary");
  const std::string standby_dir = MakeTempDir("standby");

  // Aggressive retention: one snapshot, no extra log margin, tiny
  // segments — the log horizon advances quickly.
  StreamingRankerOptions primary_options = SerialOptions(primary_dir);
  primary_options.durability.keep_snapshots = 1;
  primary_options.durability.wal_keep_events = 0;
  StreamingRanker primary(nullptr, "rep", primary_options);
  ASSERT_TRUE(primary.Start(raw, alpha).ok());
  DrivePrimary(&primary, raw, 0, 10);

  std::uint64_t behind_at = 0;
  {
    LinkPair pair = MakeLoopbackPair();
    ReplicationSourceOptions source_options;
    source_options.dir = primary_dir;
    source_options.d = 3;
    ReplicationSource source(
        pair.primary.get(), [&] { return primary.wal_synced_seq(); },
        source_options);
    ServeThread serving(&source);
    StreamingRanker standby(nullptr, "rep", SerialOptions(standby_dir));
    ReplicaApplier applier(&standby, pair.standby.get(),
                           ApplierOptions(standby_dir));
    ASSERT_TRUE(applier.Init().ok());
    ASSERT_TRUE(applier.CatchUpTo(primary.wal_synced_seq()).ok());
    behind_at = applier.durable_seq();
    pair.standby->Close();
    standby.Stop();
  }

  // While the standby is away, the primary rolls far enough that
  // compaction truncates the records right after the standby's offset.
  DrivePrimary(&primary, raw, 10, 60);
  ASSERT_GT(durable::OldestWalSeq(primary_dir), behind_at + 1)
      << "compaction never overtook the standby; the test is vacuous";

  LinkPair pair = MakeLoopbackPair();
  ReplicationSourceOptions source_options;
  source_options.dir = primary_dir;
  source_options.d = 3;
  ReplicationSource source(
      pair.primary.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ServeThread serving(&source);

  StreamingRanker standby(nullptr, "rep", SerialOptions(standby_dir));
  ReplicaApplier applier(&standby, pair.standby.get(),
                         ApplierOptions(standby_dir));
  ASSERT_TRUE(applier.Init().ok());
  EXPECT_EQ(applier.durable_seq(), behind_at);

  const std::uint64_t tip = primary.wal_synced_seq();
  ASSERT_TRUE(applier.CatchUpTo(tip).ok());
  // The source could not serve seq behind_at+1 from the log any more, so
  // it re-shipped its newest snapshot mid-stream; the applier replaced its
  // local chain (snapshot + wal suffix stays contiguous) and caught up.
  EXPECT_EQ(source.snapshots_shipped(), 1);
  EXPECT_EQ(applier.durable_seq(), tip);
  ExpectSnapshotsBitIdentical(standby.snapshot(), primary.snapshot(),
                              "after re-ship");

  // The replaced local dir is still a valid recovery dir in its own
  // right: a third incarnation rebuilds the same state from disk alone.
  {
    StreamingRanker reborn(nullptr, "rep", SerialOptions(standby_dir));
    ASSERT_TRUE(reborn.RecoverAsFollower().ok());
    EXPECT_EQ(reborn.follower_applied_seq(), tip);
    ExpectSnapshotsBitIdentical(reborn.snapshot(), primary.snapshot(),
                                "reborn from re-shipped chain");
    reborn.Stop();
  }

  pair.standby->Close();
  primary.Stop();
  standby.Stop();
  RemoveDir(primary_dir);
  RemoveDir(standby_dir);
}

TEST(ReplicationTest, SourceFencesItselfPermanentlyOnANewerEpoch) {
  const std::string primary_dir = MakeTempDir("primary");
  LinkPair pair = MakeLoopbackPair();
  ReplicationSourceOptions source_options;
  source_options.dir = primary_dir;
  source_options.d = 3;
  source_options.epoch = 1;
  ReplicationSource source(pair.primary.get(), [] { return std::uint64_t{0}; },
                           source_options);

  // A request stamped with a newer epoch — the first thing a freshly
  // promoted standby's lineage would send this deposed primary.
  Message newer;
  newer.type = MessageType::kCatchUpRequest;
  newer.epoch = 2;
  ASSERT_TRUE(pair.standby->Send(EncodeMessage(newer)).ok());
  EXPECT_EQ(source.HandleOne(0.1).code(), StatusCode::kAborted);
  EXPECT_TRUE(source.fenced());

  // The deposed source told the peer exactly who fenced it.
  const auto reply = pair.standby->Receive(0.1);
  ASSERT_TRUE(reply.ok());
  const auto fenced = DecodeMessage(*reply);
  ASSERT_TRUE(fenced.ok());
  EXPECT_EQ(fenced->type, MessageType::kFenced);
  EXPECT_EQ(fenced->epoch, 1u);
  EXPECT_EQ(fenced->a, 2u);

  // Fencing is forever: even a legitimate old-epoch request gets nothing.
  Message old_epoch;
  old_epoch.type = MessageType::kCatchUpRequest;
  old_epoch.epoch = 1;
  old_epoch.b = 1;
  ASSERT_TRUE(pair.standby->Send(EncodeMessage(old_epoch)).ok());
  EXPECT_EQ(source.HandleOne(0.1).code(), StatusCode::kAborted);
  EXPECT_EQ(pair.standby->Receive(0.05).status().code(),
            StatusCode::kDeadlineExceeded);
  RemoveDir(primary_dir);
}

TEST(ReplicationTest, ApplierRejectsStaleEpochsAndAdoptsNewerOnesDurably) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const std::string standby_dir = MakeTempDir("standby");
  ASSERT_TRUE(StoreEpoch(standby_dir, 5).ok());

  LinkPair pair = MakeLoopbackPair();
  StreamingRanker standby(nullptr, "rep", SerialOptions(standby_dir));
  ReplicaApplier applier(&standby, pair.standby.get(),
                         ApplierOptions(standby_dir));
  ASSERT_TRUE(applier.Init().ok());
  EXPECT_EQ(applier.epoch(), 5u);

  // A late heartbeat from the deposed epoch-3 lineage: rejected, counted,
  // and surfaced as kAborted so a driving loop knows this is not a retry.
  Message stale;
  stale.type = MessageType::kWalBatch;
  stale.epoch = 3;
  stale.payload = EncodeWalRecords({});
  ASSERT_TRUE(pair.primary->Send(EncodeMessage(stale)).ok());
  EXPECT_EQ(applier.PumpOnce().code(), StatusCode::kAborted);
  EXPECT_EQ(applier.stale_epoch_rejects(), 1);
  EXPECT_EQ(applier.epoch(), 5u);

  // A message from a NEWER lineage: adopt its epoch, and persist the
  // adoption before anything from it is applied — after a crash this
  // standby must still refuse epoch-5..8 leftovers.
  Message newer;
  newer.type = MessageType::kWalBatch;
  newer.epoch = 9;
  newer.payload = EncodeWalRecords({});
  ASSERT_TRUE(pair.primary->Send(EncodeMessage(newer)).ok());
  ASSERT_TRUE(applier.PumpOnce().ok());
  EXPECT_EQ(applier.epoch(), 9u);
  const auto persisted = LoadEpoch(standby_dir);
  ASSERT_TRUE(persisted.ok());
  EXPECT_EQ(*persisted, 9u);

  // A source declaring itself fenced is a dead feed, not an error to
  // apply: kUnavailable, retryable against a different peer.
  Message fenced;
  fenced.type = MessageType::kFenced;
  fenced.epoch = 9;
  ASSERT_TRUE(pair.primary->Send(EncodeMessage(fenced)).ok());
  EXPECT_EQ(applier.PumpOnce().code(), StatusCode::kUnavailable);

  standby.Stop();
  RemoveDir(standby_dir);
}

TEST(ReplicationTest, LostFeedDegradesToReadOnlyServingWithHonestStaleness) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 40, 7);
  const Matrix probe = RawFixture(alpha, 10, 9);
  const std::string primary_dir = MakeTempDir("primary");
  const std::string standby_dir = MakeTempDir("standby");

  StreamingRanker primary(nullptr, "rep", SerialOptions(primary_dir));
  ASSERT_TRUE(primary.Start(raw, alpha).ok());
  DrivePrimary(&primary, raw, 0, 10);

  LinkPair pair = MakeLoopbackPair();
  ReplicationSourceOptions source_options;
  source_options.dir = primary_dir;
  source_options.d = 3;
  ReplicationSource source(
      pair.primary.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ServeThread serving(&source);

  double fake_time = 1000.0;
  serve::RankingService standby_service;
  StreamingRanker standby(&standby_service, "rep", SerialOptions(standby_dir));
  ReplicaApplierOptions applier_options = ApplierOptions(standby_dir);
  applier_options.lease_seconds = 2.0;
  applier_options.now = [&] { return fake_time; };
  ReplicaApplier applier(&standby, pair.standby.get(), applier_options);
  ASSERT_TRUE(applier.Init().ok());
  ASSERT_TRUE(applier.CatchUpTo(primary.wal_synced_seq()).ok());
  const std::uint64_t frozen_version = standby.snapshot().version;
  EXPECT_FALSE(applier.feed_lost());

  // The primary vanishes (link dies). Within the lease the standby is
  // merely behind; past it, the feed is declared lost.
  pair.standby->Close();
  EXPECT_EQ(applier.PumpOnce().code(), StatusCode::kUnavailable);
  fake_time += 1.0;
  EXPECT_FALSE(applier.feed_lost());
  fake_time += 4.0;
  EXPECT_TRUE(applier.feed_lost());
  EXPECT_NEAR(applier.staleness_seconds(), 5.0, 1e-9);

  // Lost feed degrades, it does not stop serving: the last replicated
  // version still answers queries; mutations stay refused.
  const auto version = standby_service.DatasetVersion("rep");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, frozen_version);
  EXPECT_TRUE(standby_service.Query("rep", probe).ok());
  EXPECT_EQ(standby.Append(raw.Row(0)).status().code(),
            StatusCode::kFailedPrecondition);

  primary.Stop();
  standby.Stop();
  RemoveDir(primary_dir);
  RemoveDir(standby_dir);
}

TEST(ReplicationTest, CatchUpRetriesThroughALossyLinkDeterministically) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 40, 7);
  const std::string primary_dir = MakeTempDir("primary");
  const std::string standby_dir = MakeTempDir("standby");

  StreamingRanker primary(nullptr, "rep", SerialOptions(primary_dir));
  ASSERT_TRUE(primary.Start(raw, alpha).ok());
  DrivePrimary(&primary, raw, 0, 25);

  LinkPair pair = MakeLoopbackPair();
  // Both directions lossy and damaging: requests and replies drop,
  // duplicate and truncate. The protocol must grind through regardless.
  FaultPlan plan;
  plan.drop = 0.3;
  plan.duplicate = 0.2;
  plan.truncate = 0.15;
  plan.seed = 1234;
  auto standby_link = WrapWithFaults(std::move(pair.standby), plan);
  plan.seed = 4321;  // independent fault stream for the reply direction
  auto primary_link = WrapWithFaults(std::move(pair.primary), plan);

  ReplicationSourceOptions source_options;
  source_options.dir = primary_dir;
  source_options.d = 3;
  source_options.max_batch_records = 4;
  ReplicationSource source(
      primary_link.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  ServeThread serving(&source);

  StreamingRanker standby(nullptr, "rep", SerialOptions(standby_dir));
  ReplicaApplierOptions applier_options = ApplierOptions(standby_dir);
  applier_options.request_timeout_seconds = 0.02;  // fail fast, retry fast
  applier_options.retry.max_attempts = 0;          // unlimited attempts
  applier_options.retry.deadline_seconds = 30.0;   // bounded by wall clock
  int sleeps = 0;
  applier_options.sleep = [&](double) { ++sleeps; };
  ReplicaApplier applier(&standby, standby_link.get(), applier_options);
  ASSERT_TRUE(applier.Init().ok());

  const std::uint64_t tip = primary.wal_synced_seq();
  ASSERT_TRUE(applier.CatchUpTo(tip).ok());
  EXPECT_EQ(applier.durable_seq(), tip);
  EXPECT_GT(sleeps, 0);  // the lossy link really did force backoffs
  ExpectSnapshotsBitIdentical(standby.snapshot(), primary.snapshot(),
                              "through faults");

  standby_link->Close();
  primary.Stop();
  standby.Stop();
  RemoveDir(primary_dir);
  RemoveDir(standby_dir);
}

}  // namespace
}  // namespace rpc::replica
