// replication_demo — replicated durability end to end: a standby
// bootstraps from a shipped snapshot, streams the primary's WAL tail over
// a (deliberately unreliable) link, survives its own crash mid-catch-up,
// and when the primary dies takes over behind a durable epoch fence.
//
//   1. Start a durable primary and ingest; attach a ReplicationSource.
//   2. A stateless standby pulls: snapshot bootstrap, then WAL batches,
//      every batch locally fsynced before it is acked. The link's fault
//      mode comes from RPC_REPLICA_FAULT (none, drop, duplicate, reorder,
//      delay, truncate, everything — default none).
//   3. The standby "crashes" mid-catch-up and restarts from its own
//      durability directory: replication resumes at its durable offset.
//   4. The primary dies. The standby promotes: epoch+1 is persisted
//      before the ranker takes over, so the deposed primary's source is
//      permanently fenced the moment the new lineage speaks to it.
//   5. The promoted standby serves and ingests as the new primary; its
//      state is verified bit-for-bit against a replica of the old primary
//      that never crashed.
//
//   build/examples/replication_demo
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

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

namespace {

using rpc::linalg::Matrix;
using rpc::linalg::Vector;

std::string MakeTempDir(const char* tag) {
  std::string templ = std::string("/tmp/rpc_replication_demo_") + tag +
                      "_XXXXXX";
  std::vector<char> buffer(templ.begin(), templ.end());
  buffer.push_back('\0');
  const char* dir = ::mkdtemp(buffer.data());
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

bool PlanFromName(const std::string& name, rpc::replica::FaultPlan* plan) {
  *plan = {};
  plan->seed = 20260808;
  if (name == "none") return true;
  if (name == "drop") { plan->drop = 0.3; return true; }
  if (name == "duplicate") { plan->duplicate = 0.4; return true; }
  if (name == "reorder") { plan->reorder = 0.4; return true; }
  if (name == "delay") { plan->delay = 0.4; return true; }
  if (name == "truncate") { plan->truncate = 0.3; return true; }
  if (name == "everything") {
    plan->drop = plan->duplicate = plan->reorder = plan->delay = 0.15;
    plan->truncate = 0.1;
    return true;
  }
  return false;
}

rpc::stream::StreamingRankerOptions RankerOptions(const std::string& dir) {
  rpc::stream::StreamingRankerOptions options;
  options.num_threads = 1;  // deterministic: promoted vs reference is exact
  options.drift.refit_on_row_delta = 0;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.learner.seed = 42;
  options.durability.dir = dir;
  options.durability.snapshot_every_events = 50;
  return options;
}

rpc::replica::ReplicaApplierOptions ApplierOptions(const std::string& dir) {
  rpc::replica::ReplicaApplierOptions options;
  options.dir = dir;
  options.d = 3;
  options.request_timeout_seconds = 0.02;  // fault modes need fast retries
  options.retry.initial_backoff_seconds = 0.001;
  options.retry.max_backoff_seconds = 0.02;
  options.retry.max_attempts = 0;         // unlimited attempts...
  options.retry.deadline_seconds = 60.0;  // ...bounded by wall clock
  return options;
}

}  // namespace

int main() {
  const char* fault_env = std::getenv("RPC_REPLICA_FAULT");
  const std::string fault = fault_env != nullptr ? fault_env : "none";
  rpc::replica::FaultPlan plan;
  if (!PlanFromName(fault, &plan)) {
    std::fprintf(stderr, "bad RPC_REPLICA_FAULT '%s'\n", fault.c_str());
    return 1;
  }

  const auto alpha = *rpc::order::Orientation::FromSigns({+1, +1, -1});
  const Matrix initial =
      rpc::data::GenerateLatentCurveData(
          alpha, {.n = 250, .noise_sigma = 0.05, .control_margin = 0.1,
                  .seed = 7})
          .data;
  const std::string p_dir = MakeTempDir("primary");
  const std::string s_dir = MakeTempDir("standby");
  if (p_dir.empty() || s_dir.empty()) return 1;

  std::printf("== 1. durable primary + replication source (faults: %s) ==\n",
              fault.c_str());
  rpc::serve::RankingService primary_service;
  rpc::stream::StreamingRanker primary(&primary_service, "live",
                                       RankerOptions(p_dir));
  if (!primary.Start(initial, alpha).ok()) return 1;
  // The never-crashed reference replica: fed exactly the same ops, used at
  // the end to verify the promoted standby bit for bit.
  rpc::stream::StreamingRankerOptions plain = RankerOptions("");
  plain.durability = {};
  rpc::serve::RankingService reference_service;
  rpc::stream::StreamingRanker reference(&reference_service, "live", plain);
  if (!reference.Start(initial, alpha).ok()) return 1;

  const auto drive = [&](rpc::stream::StreamingRanker* target, int from,
                         int count) {
    for (int a = from; a < from + count; ++a) {
      Vector row = initial.Row(a % initial.rows());
      for (int j = 0; j < row.size(); ++j) row[j] *= 1.0 + 0.0005 * (a + 1);
      if (!target->Append(row).ok()) return false;
    }
    return target->Flush().ok();
  };
  if (!drive(&primary, 0, 120) || !drive(&reference, 0, 120)) return 1;

  auto pair = rpc::replica::MakeLoopbackPair();
  auto standby_link =
      rpc::replica::WrapWithFaults(std::move(pair.standby), plan);
  plan.seed += 1;  // independent fault stream for the reply direction
  auto primary_link =
      rpc::replica::WrapWithFaults(std::move(pair.primary), plan);
  rpc::replica::ReplicationSourceOptions source_options;
  source_options.dir = p_dir;
  source_options.d = 3;
  source_options.max_batch_records = 32;
  rpc::replica::ReplicationSource source(
      primary_link.get(), [&] { return primary.wal_synced_seq(); },
      source_options);
  std::thread serving([&source] { (void)source.Serve(); });

  std::printf("== 2. stateless standby bootstraps and streams the tail ==\n");
  std::uint64_t durable_before_crash = 0;
  {
    rpc::stream::StreamingRanker standby(nullptr, "live",
                                         RankerOptions(s_dir));
    rpc::replica::ReplicaApplier applier(&standby, standby_link.get(),
                                         ApplierOptions(s_dir));
    if (!applier.Init().ok()) return 1;
    // Catch up only part of the way: this incarnation is about to die.
    if (!applier.CatchUpTo(60).ok()) return 1;
    durable_before_crash = applier.durable_seq();
    standby.Stop();
    // Standby "crash": applier and ranker die; only s_dir survives.
  }
  std::printf("   first incarnation died at durable offset %llu\n",
              static_cast<unsigned long long>(durable_before_crash));

  std::printf("== 3. standby restarts and resumes from its own WAL ==\n");
  rpc::serve::RankingService standby_service;
  rpc::stream::StreamingRanker standby(&standby_service, "live",
                                       RankerOptions(s_dir));
  rpc::replica::ReplicaApplier applier(&standby, standby_link.get(),
                                       ApplierOptions(s_dir));
  if (!applier.Init().ok()) return 1;
  if (!applier.has_state() ||
      applier.durable_seq() < durable_before_crash) {
    std::fprintf(stderr, "standby failed to resume from local state\n");
    return 1;
  }
  const std::uint64_t tip = primary.wal_synced_seq();
  if (!applier.CatchUpTo(tip).ok()) return 1;
  std::printf("   resumed at %llu, caught up to %llu (lag now %llu); "
              "%lld snapshot + %lld wal batches shipped\n",
              static_cast<unsigned long long>(durable_before_crash),
              static_cast<unsigned long long>(applier.durable_seq()),
              static_cast<unsigned long long>(tip - applier.durable_seq()),
              static_cast<long long>(source.snapshots_shipped()),
              static_cast<long long>(source.batches_shipped()));

  std::printf("== 4. primary dies; standby promotes behind the fence ==\n");
  standby_link->Close();
  serving.join();
  if (!applier.Promote().ok()) return 1;
  const auto epoch = rpc::replica::LoadEpoch(s_dir);
  if (!epoch.ok() || *epoch != 2) {
    std::fprintf(stderr, "promotion did not persist the new epoch\n");
    return 1;
  }
  std::printf("   promoted: epoch %llu durable on disk before takeover\n",
              static_cast<unsigned long long>(*epoch));

  // The deposed primary's source is fenced the instant the new lineage
  // speaks to it — demonstrated on a fresh link, as a restarted old
  // primary would present.
  {
    auto probe_pair = rpc::replica::MakeLoopbackPair();
    rpc::replica::ReplicationSource deposed(
        probe_pair.primary.get(), [&] { return primary.wal_synced_seq(); },
        source_options);
    rpc::replica::Message hello;
    hello.type = rpc::replica::MessageType::kCatchUpRequest;
    hello.epoch = *epoch;
    hello.b = 1;
    if (!probe_pair.standby->Send(EncodeMessage(hello)).ok()) return 1;
    if (deposed.HandleOne(0.5).code() != rpc::StatusCode::kAborted ||
        !deposed.fenced()) {
      std::fprintf(stderr, "deposed source failed to fence itself\n");
      return 1;
    }
    std::printf("   deposed primary's source fenced on first contact\n");
  }

  std::printf("== 5. new primary serves and ingests; verify vs reference ==\n");
  if (!drive(&standby, 120, 40) || !drive(&reference, 120, 40)) return 1;
  if (!standby.ForceRefresh().ok() || !reference.ForceRefresh().ok()) {
    return 1;
  }
  if (!standby.Flush().ok() || !reference.Flush().ok()) return 1;
  Matrix probe(8, 3);
  for (int i = 0; i < probe.rows(); ++i) {
    probe.SetRow(i, initial.Row(13 * i + 2));
  }
  const auto got = standby_service.Query("live", probe);
  const auto want = reference_service.Query("live", probe);
  if (!got.ok() || !want.ok()) return 1;
  for (int i = 0; i < probe.rows(); ++i) {
    if (got->scores[i] != want->scores[i]) {
      std::fprintf(stderr, "promoted score %d differs from the replica "
                   "that never failed over\n", i);
      return 1;
    }
  }
  std::printf("   %d probe scores bit-identical to the never-crashed "
              "replica after failover\n", probe.rows());

  primary.Stop();
  standby.Stop();
  reference.Stop();
  RemoveDir(p_dir);
  RemoveDir(s_dir);
  std::printf("replication demo done (faults: %s)\n", fault.c_str());
  return 0;
}
