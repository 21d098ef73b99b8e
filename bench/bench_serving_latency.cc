// Serving-tier latency under QoS: per-priority-class latency quantiles
// (p50/p99/p999) of serve::RankingService at saturating mixed-priority
// load, plus a single-thread closed-loop row whose queries_per_sec the CI
// regression gate checks, plus a concurrent single-row (point query) row.
//
// Before any timing the served scores are verified bit-identical to
// PortableRpcModel::Score (the same normalise + project arithmetic
// RpcRanker runs in process); any mismatch fails the run.
//
//   build/bench_serving_latency [--quick]
//
// Full runs rewrite BENCH_serving_latency.json (one JSON row per
// configuration, the committed perf record the CI regression gate compares
// against); --quick runs a key-identical grid with shorter timing windows
// and writes BENCH_serving_latency.quick.json instead, so CI smokes never
// clobber the curated baselines.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

#include "bench_util.h"

namespace {

using rpc::Rng;
using rpc::linalg::Matrix;
using rpc::linalg::Vector;
using rpc::serve::AdmissionPolicy;
using rpc::serve::QueryOptions;
using rpc::serve::QueryPriority;
using rpc::serve::RankingService;

// Synthetic all-benefit portable model over a random strictly monotone
// cubic — the serving tier never fits, so neither does its bench. Keep in
// sync with the copy in tests/serve/ranking_service_test.cc.
rpc::core::PortableRpcModel MonotoneModel(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  rpc::core::PortableRpcModel model;
  model.alpha = rpc::order::Orientation::AllBenefit(d);
  model.mins = Vector(d, 0.0);
  model.maxs = Vector(d, 1.0);
  model.control_points = control;
  return model;
}

Matrix RandomRows(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) rows(i, j) = rng.Uniform(-0.1, 1.1);
  }
  return rows;
}

// One driver class's aggregated outcome over the timing window.
struct ClassResult {
  std::vector<double> latencies_us;  // completed queries only
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t deadline_expired = 0;
  double seconds = 0.0;

  void Merge(const ClassResult& other) {
    latencies_us.insert(latencies_us.end(), other.latencies_us.begin(),
                        other.latencies_us.end());
    completed += other.completed;
    shed += other.shed;
    deadline_expired += other.deadline_expired;
  }
};

double Quantile(std::vector<double>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const auto n = static_cast<std::int64_t>(sorted_us.size());
  const auto rank = std::min<std::int64_t>(
      n - 1, static_cast<std::int64_t>(q * static_cast<double>(n)));
  return sorted_us[static_cast<size_t>(rank)];
}

void EmitJson(std::FILE* sink, const char* variant, const char* priority,
              int batch, int threads, int callers, ClassResult& r) {
  std::sort(r.latencies_us.begin(), r.latencies_us.end());
  const double qps =
      r.seconds > 0.0 ? static_cast<double>(r.completed) / r.seconds : 0.0;
  const std::string line =
      std::string("{\"bench\":\"serving_latency\",\"variant\":\"") + variant +
      "\",\"priority\":\"" + priority +
      "\",\"batch\":" + std::to_string(batch) +
      ",\"threads\":" + std::to_string(threads) +
      ",\"callers\":" + std::to_string(callers) +
      ",\"queries_per_sec\":" + std::to_string(qps) +
      ",\"p50_us\":" + std::to_string(Quantile(r.latencies_us, 0.5)) +
      ",\"p99_us\":" + std::to_string(Quantile(r.latencies_us, 0.99)) +
      ",\"p999_us\":" + std::to_string(Quantile(r.latencies_us, 0.999)) +
      ",\"completed\":" + std::to_string(r.completed) +
      ",\"shed\":" + std::to_string(r.shed) +
      ",\"deadline_expired\":" + std::to_string(r.deadline_expired) + "}";
  std::printf("%s\n", line.c_str());
  if (sink != nullptr) std::fprintf(sink, "%s\n", line.c_str());
}

// Issues `options`-policy queries in a closed loop until `min_seconds`
// elapses, recording per-query latency for the completed ones.
ClassResult Drive(const RankingService& service, const Matrix& rows,
                  const QueryOptions& options, double min_seconds) {
  ClassResult result;
  const auto start = std::chrono::steady_clock::now();
  for (;;) {
    const auto before = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(before - start).count() >= min_seconds) {
      break;
    }
    QueryOptions per_query = options;
    if (options.deadline != std::chrono::steady_clock::time_point::max()) {
      // Re-arm relative deadlines per query; `options.deadline` carries the
      // budget encoded as an offset from the epoch.
      per_query.deadline = before + options.deadline.time_since_epoch();
    }
    const auto batch = service.Query("ds", rows, per_query);
    const auto after = std::chrono::steady_clock::now();
    if (batch.ok()) {
      ++result.completed;
      result.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(after - before).count());
    } else if (batch.status().code() ==
               rpc::StatusCode::kDeadlineExceeded) {
      ++result.deadline_expired;
    } else {
      ++result.shed;
    }
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

// Runs `callers` Drive loops concurrently and merges their results.
ClassResult DriveConcurrent(const RankingService& service, const Matrix& rows,
                            const QueryOptions& options, int callers,
                            double min_seconds) {
  std::vector<ClassResult> per_caller(static_cast<size_t>(callers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(callers));
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      per_caller[static_cast<size_t>(c)] =
          Drive(service, rows, options, min_seconds);
    });
  }
  for (auto& t : threads) t.join();
  ClassResult merged;
  merged.seconds = min_seconds;
  for (ClassResult& r : per_caller) {
    merged.seconds = std::max(merged.seconds, r.seconds);
    merged.Merge(r);
  }
  return merged;
}

int VerifyBitIdentity(const RankingService& service,
                      const rpc::core::PortableRpcModel& model,
                      const Matrix& rows) {
  const auto batch = service.Query("ds", rows);
  if (!batch.ok()) {
    std::fprintf(stderr, "verify: query failed: %s\n",
                 batch.status().ToString().c_str());
    return rows.rows();
  }
  int mismatches = 0;
  for (int i = 0; i < rows.rows(); ++i) {
    const auto expected = model.Score(rows.Row(i));
    if (!expected.ok() || batch->scores[i] != *expected) ++mismatches;
  }
  return mismatches;
}

// Encodes a relative deadline budget in a QueryOptions the Drive loop can
// re-arm per query (see Drive).
QueryOptions WithBudget(QueryPriority priority, AdmissionPolicy admission,
                        std::chrono::nanoseconds budget) {
  QueryOptions options;
  options.priority = priority;
  options.admission = admission;
  options.deadline =
      std::chrono::steady_clock::time_point(budget);  // offset, re-armed
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  constexpr int kDim = 8;
  const double min_seconds = quick ? 0.15 : 0.5;
  const rpc::core::PortableRpcModel model = MonotoneModel(kDim, 42);

  const char* sink_path = quick ? "BENCH_serving_latency.quick.json"
                                : "BENCH_serving_latency.json";
  std::FILE* sink = std::fopen(sink_path, "w");
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::printf("# serving latency under QoS; %d hardware thread(s); JSON "
              "also in %s\n",
              hw > 0 ? hw : 1, sink_path);

  // -- Row 1: single-thread closed loop, the machine-comparable row the CI
  //    regression gate checks (threads == 1, callers == 1).
  {
    RankingService::Options options;
    options.num_threads = 1;
    RankingService service(options);
    if (!service.RegisterDataset("ds", model).ok()) return 1;
    const Matrix rows = RandomRows(8, kDim, 7);
    if (VerifyBitIdentity(service, model, rows) != 0) {
      std::fprintf(stderr, "verify: served scores are not bit-identical\n");
      return 1;
    }
    (void)service.Query("ds", rows);  // warm-up
    ClassResult r = Drive(service, rows, QueryOptions(), min_seconds);
    EmitJson(sink, "closed_loop", "interactive", rows.rows(), 1, 1, r);
  }

  // -- Rows 2-4: saturating mixed-priority load on a full-pool service with
  //    a small admission queue. Two batch-class callers push large blocking
  //    queries (the saturators), two interactive callers run small
  //    deadline-bounded queries through lane 0, and two background callers
  //    offer kReject load that the watermarks shed first. Caller counts are
  //    fixed (not hw-derived) so row identities match across machines;
  //    these rows are reported, never gated.
  {
    RankingService::Options options;
    // One dedicated worker regardless of the machine: the point of this
    // scenario is queue behaviour under saturation, which an inline pool
    // (hw = 1) would hide and a huge pool would need far more load to show.
    options.num_threads = 2;
    options.queue_capacity = 16;  // watermarks: 16 / 12 / 8
    options.segment_rows = 256;
    RankingService service(options);
    if (!service.RegisterDataset("ds", model).ok()) return 1;
    const Matrix small = RandomRows(8, kDim, 8);
    const Matrix large = RandomRows(8192, kDim, 9);
    if (VerifyBitIdentity(service, model, small) != 0) return 1;

    const QueryOptions interactive =
        WithBudget(QueryPriority::kInteractive, AdmissionPolicy::kBlock,
                   std::chrono::milliseconds(100));
    QueryOptions batch;
    batch.priority = QueryPriority::kBatch;
    QueryOptions background;
    background.priority = QueryPriority::kBackground;
    background.admission = AdmissionPolicy::kReject;

    ClassResult r_interactive, r_batch, r_background;
    std::thread t_batch([&] {
      r_batch = DriveConcurrent(service, large, batch, 2, min_seconds);
    });
    std::thread t_background([&] {
      r_background =
          DriveConcurrent(service, small, background, 2, min_seconds);
    });
    r_interactive =
        DriveConcurrent(service, small, interactive, 2, min_seconds);
    t_batch.join();
    t_background.join();

    EmitJson(sink, "qos_saturated", "interactive", small.rows(), 2, 2,
             r_interactive);
    EmitJson(sink, "qos_saturated", "batch", large.rows(), 2, 2, r_batch);
    EmitJson(sink, "qos_saturated", "background", small.rows(), 2, 2,
             r_background);
  }

  // -- Row 5: concurrent point queries. Four callers issue single-row
  //    queries against a default-options service sized to the machine;
  //    each query is one segment on the shared pool. Multi-thread, so
  //    reported, never gated.
  {
    RankingService::Options options;
    options.num_threads = 0;
    RankingService service(options);
    if (!service.RegisterDataset("ds", model).ok()) return 1;
    const Matrix one = RandomRows(1, kDim, 10);
    if (VerifyBitIdentity(service, model, one) != 0) return 1;
    ClassResult r =
        DriveConcurrent(service, one, QueryOptions(), 4, min_seconds);
    EmitJson(sink, "point_concurrent", "interactive", one.rows(), 0, 4, r);
  }

  if (sink != nullptr) std::fclose(sink);
  rpc::bench::WriteTelemetrySnapshot(sink_path);
  return 0;
}
