// Streaming tier throughput and refresh latency: steady-state ingest
// rows/s through stream::StreamingRanker's bounded queue, p50/p99 warm
// refresh latency under the row-delta drift policy, and the headline
// comparison — a warm refresh (a Refit seeded with the live control
// points) against a cold single-restart fit on the same rows, which must
// be >= 3x faster at n=100k, d=4.
//
// Before any timing, the online path's bit-identity contract is verified:
// after a sequence of appends and refreshes, scores served through
// serve::RankingService must equal PortableRpcModel::Score on the
// ranker's current snapshot bit for bit. Any mismatch fails the run.
//
//   build/bench_streaming_throughput [--quick]
//
// Full runs rewrite BENCH_streaming_throughput.json (the committed perf
// record the CI regression gate compares against) and enforce the >= 3x
// warm-refresh bar; --quick runs a smaller grid with the same identity
// keys for the gated ingest row and writes
// BENCH_streaming_throughput.quick.json instead.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rpc_learner.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"
#include "stream/streaming_ranker.h"

#include "bench_util.h"

namespace {

using rpc::core::RpcLearnOptions;
using rpc::linalg::Matrix;
using rpc::linalg::Vector;
using rpc::order::Orientation;
using rpc::stream::StreamingRanker;
using rpc::stream::StreamingRankerOptions;

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Matrix RawData(const Orientation& alpha, int n, uint64_t seed) {
  // Same fixture family (and noise level) as bench_projection_throughput's
  // fit mode, so fit-time numbers are comparable across the two benches.
  return rpc::data::GenerateLatentCurveData(
             alpha, {.n = n, .noise_sigma = 0.04, .control_margin = 0.1,
                     .seed = seed})
      .data;
}

RpcLearnOptions BenchLearner() {
  // Default learner options (kFull reprojection, single restart): exactly
  // the cold fit StreamingRanker::Start runs for a user who configured
  // nothing, and therefore the honest baseline for the refresh (which runs
  // this configuration seeded with the live control points).
  RpcLearnOptions options;
  options.restarts = 1;
  options.seed = 2026;
  return options;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * (static_cast<double>(values.size()) - 1.0);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (1.0 - frac) * values[lo] + frac * values[hi];
}

void Emit(std::FILE* sink, const std::string& line) {
  std::printf("%s\n", line.c_str());
  if (sink != nullptr) std::fprintf(sink, "%s\n", line.c_str());
}

// Served-vs-snapshot bit identity after appends + refreshes; returns the
// number of mismatching scores.
int VerifyBitIdentity(const Orientation& alpha) {
  const Matrix raw = RawData(alpha, 400, 31);
  rpc::serve::RankingService service;
  StreamingRankerOptions options;
  options.learner = BenchLearner();
  options.drift.refit_on_row_delta = 64;
  options.drift.refit_on_normalizer_drift = 0.02;
  StreamingRanker ranker(&service, "bench", options);
  if (!ranker.Start(raw, alpha).ok()) return 400;
  for (int a = 0; a < 200; ++a) {
    Vector row = raw.Row(a % raw.rows());
    for (int j = 0; j < row.size(); ++j) {
      row[j] *= 1.0 + 1e-3 * (a % 7);
    }
    if (!ranker.Append(row).ok()) return 400;
  }
  if (!ranker.Flush().ok() || !ranker.ForceRefresh().ok()) return 400;
  const StreamingRanker::Snapshot snap = ranker.snapshot();
  const Matrix probe = RawData(alpha, 128, 37);
  const auto served = service.Query("bench", probe);
  if (!served.ok()) return probe.rows();
  int mismatches = 0;
  for (int i = 0; i < probe.rows(); ++i) {
    const auto expected = snap.model.Score(probe.Row(i));
    if (!expected.ok() || served->scores[i] != *expected) ++mismatches;
  }
  const auto version = service.DatasetVersion("bench");
  if (!version.ok() || *version != snap.version || snap.version < 2) {
    ++mismatches;
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const Orientation alpha = *Orientation::FromSigns({+1, +1, +1, +1});
  const int d = 4;

  const char* sink_path = quick ? "BENCH_streaming_throughput.quick.json"
                                : "BENCH_streaming_throughput.json";
  std::FILE* sink = std::fopen(sink_path, "w");
  std::printf("# streaming ingest + warm-refresh latency (GSS, d=%d); "
              "JSON also in %s\n", d, sink_path);

  const int mismatches = VerifyBitIdentity(alpha);
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "verify: %d served scores differ from the snapshot "
                 "model's own scoring\n", mismatches);
    return 1;
  }
  std::printf("# verify: served == snapshot scoring bit for bit across "
              "versioned swaps\n");

  // --- Steady-state ingest throughput (policy off, serial mode so the ---
  // --- number is machine-comparable and CI-gated). ----------------------
  {
    const int n0 = 5000;
    const int appends = quick ? 4000 : 20000;
    const Matrix raw = RawData(alpha, n0 + appends, 41);
    Matrix initial(n0, d);
    for (int i = 0; i < n0; ++i) initial.SetRow(i, raw.Row(i));
    StreamingRankerOptions options;
    options.learner = BenchLearner();
    options.drift.refit_on_row_delta = 0;
    options.drift.refit_on_normalizer_drift = 0.0;
    options.num_threads = 1;  // inline: pure per-event cost, no handoff
    options.queue_capacity = 4096;
    StreamingRanker ranker(nullptr, "bench", options);
    if (!ranker.Start(initial, alpha).ok()) return 1;
    const auto start = std::chrono::steady_clock::now();
    for (int a = 0; a < appends; ++a) {
      (void)ranker.Append(raw.Row(n0 + a));
    }
    (void)ranker.Flush();
    const double seconds = Seconds(start);
    const double rows_per_sec = appends / seconds;
    Emit(sink, std::string("{\"bench\":\"streaming_throughput\",\"variant\":"
                           "\"ingest\",\"d\":") + std::to_string(d) +
                   ",\"initial_rows\":" + std::to_string(n0) +
                   ",\"threads\":1,\"rows_per_sec\":" +
                   std::to_string(rows_per_sec) + "}");
  }

  // --- Refresh latency under the row-delta policy. ----------------------
  {
    const int n0 = quick ? 2000 : 20000;
    const int row_delta = quick ? 200 : 500;
    const int appends = quick ? 1000 : 5000;
    const Matrix raw = RawData(alpha, n0 + appends, 43);
    Matrix initial(n0, d);
    for (int i = 0; i < n0; ++i) initial.SetRow(i, raw.Row(i));
    StreamingRankerOptions options;
    options.learner = BenchLearner();
    options.drift.refit_on_row_delta = row_delta;
    options.drift.refit_on_normalizer_drift = 0.0;
    options.num_threads = 1;
    StreamingRanker ranker(nullptr, "bench", options);
    if (!ranker.Start(initial, alpha).ok()) return 1;
    for (int a = 0; a < appends; ++a) {
      (void)ranker.Append(raw.Row(n0 + a));
    }
    (void)ranker.Flush();
    const std::vector<double> history = ranker.RefreshSecondsHistory();
    Emit(sink,
         std::string("{\"bench\":\"streaming_throughput\",\"variant\":"
                     "\"refresh_latency\",\"d\":") + std::to_string(d) +
             ",\"initial_rows\":" + std::to_string(n0) +
             ",\"refit_row_delta\":" + std::to_string(row_delta) +
             ",\"threads\":1,\"refreshes\":" +
             std::to_string(history.size()) +
             ",\"p50_refresh_seconds\":" +
             std::to_string(Percentile(history, 0.5)) +
             ",\"p99_refresh_seconds\":" +
             std::to_string(Percentile(history, 0.99)) + "}");
    if (history.empty()) {
      std::fprintf(stderr, "refresh latency: no refresh fired\n");
      return 1;
    }
  }

  // --- Warm refresh vs cold single-restart fit (the acceptance bar: ----
  // --- >= 3x at n=100k, d=4; --quick shrinks n but keeps the shape). ----
  {
    const int n = quick ? 10000 : 100000;
    const int fresh = n / 100;  // 1% of the store arrived since the live fit
    const int n0 = n - fresh;
    const Matrix raw = RawData(alpha, n, 20260726);
    const auto normalizer = rpc::data::Normalizer::Fit(raw);
    if (!normalizer.ok()) return 1;
    const Matrix normalized = normalizer->Transform(raw);
    const rpc::core::RpcLearner learner(BenchLearner());

    // The live model: a fit on the store as it looked before the fresh
    // rows arrived (not timed — it represents the already-running system).
    Matrix stale(n0, d);
    for (int i = 0; i < n0; ++i) stale.SetRow(i, normalized.Row(i));
    const auto live = learner.Fit(stale, alpha);
    if (!live.ok()) return 1;

    // Cold baseline: a from-scratch single-restart fit on the full store.
    // A single trajectory's iteration count is the luck of its
    // random-sample init (the same reason the fit bench amortises over 8
    // restarts), so the baseline is the median-time fit over several
    // inits, not one draw.
    const std::vector<uint64_t> cold_seeds =
        quick ? std::vector<uint64_t>{1234, 2026, 7}
              : std::vector<uint64_t>{1234, 2026, 7, 99, 555};
    std::vector<double> cold_times;
    std::optional<rpc::core::RpcFitResult> cold;
    double cold_seconds = 0.0;
    {
      std::vector<std::pair<double, rpc::core::RpcFitResult>> runs;
      for (const uint64_t cold_seed : cold_seeds) {
        RpcLearnOptions cold_options = BenchLearner();
        cold_options.seed = cold_seed;
        const auto cold_start = std::chrono::steady_clock::now();
        auto fit = rpc::core::RpcLearner(cold_options).Fit(normalized, alpha);
        const double seconds = Seconds(cold_start);
        if (!fit.ok()) return 1;
        runs.emplace_back(seconds, *std::move(fit));
        cold_times.push_back(seconds);
      }
      std::sort(runs.begin(), runs.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto& median = runs[runs.size() / 2];
      cold_seconds = median.first;
      cold = std::move(median.second);
    }

    // Warm refresh: the streaming path — the live control points as the
    // seed, refresh options as the StreamingRanker derives them.
    StreamingRankerOptions stream_options;
    stream_options.learner = BenchLearner();
    StreamingRanker shape_only(nullptr, "bench", stream_options);
    const rpc::core::RpcLearner warm_learner(shape_only.warm_options());
    const auto warm_start_time = std::chrono::steady_clock::now();
    const auto warm = warm_learner.Refit(normalized, alpha,
                                         live->curve.control_points());
    const double warm_seconds = Seconds(warm_start_time);
    if (!warm.ok()) return 1;
    const double speedup = cold_seconds / warm_seconds;
    // The refresh continues the live model's basin while an independent
    // cold fit may land in another one, so J parity is not the contract
    // (bit-identity to a hand-rolled Refit is, and the test suite gates
    // it); fit *quality* must stay comparable, measured by explained
    // variance.
    const double j_rel =
        std::fabs(warm->final_j - cold->final_j) /
        std::max(1e-300, std::fabs(cold->final_j));
    Emit(sink,
         std::string("{\"bench\":\"streaming_throughput\",\"variant\":"
                     "\"refresh_vs_cold\",\"d\":") + std::to_string(d) +
             ",\"n\":" + std::to_string(n) +
             ",\"threads\":1,\"cold_seconds\":" +
             std::to_string(cold_seconds) + ",\"warm_seconds\":" +
             std::to_string(warm_seconds) + ",\"speedup_vs_cold\":" +
             std::to_string(speedup) + ",\"j_rel_diff_vs_full\":" +
             std::to_string(j_rel) + "}");
    if (warm->explained_variance < cold->explained_variance - 0.02) {
      std::fprintf(stderr,
                   "warm refresh explained variance %.4f fell behind the "
                   "cold fit's %.4f\n",
                   warm->explained_variance, cold->explained_variance);
      return 1;
    }
    if (!quick && speedup < 3.0) {
      std::fprintf(stderr,
                   "warm refresh only %.2fx faster than the cold "
                   "single-restart fit (bar: 3x)\n", speedup);
      return 1;
    }
  }

  if (sink != nullptr) std::fclose(sink);
  rpc::bench::WriteTelemetrySnapshot(sink_path);
  return 0;
}
