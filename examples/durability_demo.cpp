// durability_demo — crash-safe streaming: every applied event goes through
// a checksummed write-ahead log, milestone snapshots bound the replay, and
// Recover() rebuilds the exact pre-crash ranker.
//
//   1. Start a durable StreamingRanker: the durability directory gets a
//      base snapshot and a segmented event log.
//   2. Ingest appends and retirements; Flush() is the acknowledgment
//      boundary (records synced to disk).
//   3. Kill the process mid-write at a fault-injection point (torn tail
//      write by default; set RPC_DURABLE_FAILPOINT to any of
//      torn_tail_write, checksum_flip, partial_snapshot,
//      crash_between_fsync_and_rename — optionally ":N" for the N-th hit).
//   4. Recover() on the crash image: load the newest intact snapshot,
//      replay the log tail, cut the torn record, re-publish the served
//      model — then verify the served scores bit-for-bit against a
//      replica that never crashed.
//
//   build/examples/durability_demo
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/rng.h"
#include "data/generators.h"
#include "durable/fault_injector.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"
#include "stream/streaming_ranker.h"

namespace {

std::string MakeTempDir() {
  char templ[] = "/tmp/rpc_durability_demo_XXXXXX";
  const char* dir = ::mkdtemp(templ);
  return dir == nullptr ? std::string() : std::string(dir);
}

void RemoveDir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

int main() {
  using rpc::linalg::Matrix;
  using rpc::linalg::Vector;

  const auto alpha = *rpc::order::Orientation::FromSigns({+1, +1, -1});
  const Matrix initial =
      rpc::data::GenerateLatentCurveData(
          alpha, {.n = 250, .noise_sigma = 0.05, .control_margin = 0.1,
                  .seed = 7})
          .data;

  const std::string live_dir = MakeTempDir();
  const std::string crash_dir = MakeTempDir();
  if (live_dir.empty() || crash_dir.empty()) return 1;
  RemoveDir(crash_dir);  // recreated below as an exact crash image

  const char* spec_env = std::getenv("RPC_DURABLE_FAILPOINT");
  const std::string spec = spec_env != nullptr ? spec_env : "torn_tail_write";
  auto injector = std::make_shared<rpc::durable::FaultInjector>();

  rpc::stream::StreamingRankerOptions options;
  options.num_threads = 1;  // deterministic: crashed vs reference is exact
  options.drift.refit_on_row_delta = 0;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.learner.seed = 42;
  options.durability.dir = live_dir;
  options.durability.snapshot_every_events = 50;
  options.durability.injector = injector;

  rpc::stream::StreamingRankerOptions plain = options;
  plain.durability = {};  // the never-crashed replica runs without a log

  std::printf("== 1. start durable ranker (WAL + snapshots in %s) ==\n",
              live_dir.c_str());
  rpc::serve::RankingService crashed_service, reference_service;
  rpc::stream::StreamingRanker reference(&reference_service, "live", plain);
  if (!reference.Start(initial, alpha).ok()) return 1;

  {
    rpc::stream::StreamingRanker ranker(&crashed_service, "live", options);
    if (!ranker.Start(initial, alpha).ok()) return 1;

    std::printf("== 2. ingest 120 appends + 3 retirements, then Flush ==\n");
    const auto drive = [&](rpc::stream::StreamingRanker* target) {
      rpc::Rng replay(99);
      for (int a = 0; a < 120; ++a) {
        Vector row =
            initial.Row(static_cast<int>(replay.UniformInt(initial.rows())));
        for (int j = 0; j < row.size(); ++j) {
          row[j] *= replay.Uniform(0.95, 1.08);
        }
        if (!target->Append(row).ok()) return false;
      }
      return target->Retire(3).ok() && target->Retire(11).ok() &&
             target->Retire(19).ok();
    };
    if (!drive(&ranker) || !drive(&reference)) return 1;
    if (!ranker.ForceRefresh().ok() || !reference.ForceRefresh().ok()) {
      return 1;
    }
    if (!ranker.Flush().ok() || !reference.Flush().ok()) return 1;
    std::printf("   acknowledged: %lld log records staged and synced\n",
                static_cast<long long>(ranker.stats().wal_records));

    std::printf("== 3. kill -9 at failpoint '%s' ==\n", spec.c_str());
    if (!injector->ArmFromSpec(spec).ok()) {
      std::fprintf(stderr, "bad RPC_DURABLE_FAILPOINT spec '%s'\n",
                   spec.c_str());
      return 1;
    }
    // These arrivals were never acknowledged; the armed fault fires while
    // they are being made durable.
    for (int a = 0; a < 60; ++a) {
      Vector row = initial.Row(a % initial.rows());
      for (int j = 0; j < row.size(); ++j) row[j] *= 1.01;
      (void)ranker.Append(row);
    }
    (void)ranker.Flush();
    if (!injector->crashed()) {
      std::fprintf(stderr, "failpoint '%s' never fired\n", spec.c_str());
      return 1;
    }
    // Freeze the on-disk state at the instant of the crash, while the
    // process is still "up" — a faithful kill -9 image.
    std::error_code ec;
    std::filesystem::copy(live_dir, crash_dir,
                          std::filesystem::copy_options::recursive, ec);
    if (ec) return 1;
    std::printf("   crashed with %lld durable errors; image frozen\n",
                static_cast<long long>(ranker.stats().durable_errors));
  }

  std::printf("== 4. Recover() on the crash image ==\n");
  rpc::stream::StreamingRankerOptions recover_options = options;
  recover_options.durability.dir = crash_dir;
  recover_options.durability.injector = nullptr;
  rpc::serve::RankingService recovered_service;
  rpc::stream::StreamingRanker recovered(&recovered_service, "live",
                                         recover_options);
  const rpc::Status status = recovered.Recover();
  if (!status.ok()) {
    std::fprintf(stderr, "recover failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const auto info = recovered.recovery_info();
  std::printf("   snapshot %s + %llu replayed records%s\n",
              std::filesystem::path(info.snapshot_path).filename().c_str(),
              static_cast<unsigned long long>(info.replayed_records),
              info.tail_truncated ? " (torn tail cut)" : "");

  // The recovered ranker must serve exactly what a replica that processed
  // the same acknowledged events — and never crashed — serves.
  const auto version = recovered_service.DatasetVersion("live");
  const auto want_version = reference_service.DatasetVersion("live");
  if (!version.ok() || !want_version.ok() || *version != *want_version) {
    std::fprintf(stderr, "recovered version out of sync\n");
    return 1;
  }
  Matrix probe(8, 3);
  for (int i = 0; i < probe.rows(); ++i) {
    probe.SetRow(i, initial.Row(13 * i + 2));
  }
  const auto got = recovered_service.Query("live", probe);
  const auto want = reference_service.Query("live", probe);
  if (!got.ok() || !want.ok()) return 1;
  for (int i = 0; i < probe.rows(); ++i) {
    if (got->scores[i] != want->scores[i]) {
      std::fprintf(stderr, "recovered score %d differs from the replica\n",
                   i);
      return 1;
    }
  }
  std::printf("   version %llu restored; %d probe scores bit-identical to "
              "the uncrashed replica\n",
              static_cast<unsigned long long>(*version), probe.rows());

  recovered.Stop();
  reference.Stop();
  RemoveDir(live_dir);
  RemoveDir(crash_dir);
  std::printf("durability demo done\n");
  return 0;
}
