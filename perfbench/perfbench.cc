// The repo benchmark. One workload per invocation:
//
//   perfbench --workload fit_cold|serve_mixed|stream_live --seed N
//             --seconds S --trace 0|1
//
// --trace 0 measures with obs tracing off and prints the end-to-end
// metrics. --trace 1 runs the workload twice for S/2 each — tracing off,
// then on — and prints the per-layer metrics: counters and stage timings
// from the untraced pass, span-derived figures (self time per layer,
// trace coverage) from the traced pass, and their ratio as
// obs.tracing_overhead. The last line of stdout is the JSON result;
// progress goes to stderr. Exits non-zero on bad arguments or when an
// output check fails.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "workloads.h"

namespace {

using perfbench::Args;
using perfbench::PassResult;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric BENCHMARK.json lists, in its order. A workload
// that does not exercise a layer reports 0 for that layer's metrics.
constexpr MetricDef kPerLayer[] = {
    {"fit_s", "s"},
    {"fit_explained_variance", "ratio"},
    {"point_p50_us", "us"},
    {"point_p99_us", "us"},
    {"serve_max_qps", "1/s"},
    {"bulk_rows_per_s", "rows/s"},
    {"generator_late_p99_us", "us"},
    {"read_p99_us", "us"},
    {"durable_ack_p99_ms", "ms"},
    {"replica_ack_p99_ms", "ms"},
    {"staleness_p50_ms", "ms"},
    {"staleness_p90_ms", "ms"},
    {"recover_s", "s"},
    {"core.fit_iterations", "count"},
    {"core.update_s", "s"},
    {"core.refit_ms", "ms"},
    {"opt.projection_s", "s"},
    {"opt.project_rows_per_s", "rows/s"},
    {"curve.kernel_ns_per_row", "ns"},
    {"curve.kernel_bytes_per_row", "B"},
    {"data.normalize_rows_per_s", "rows/s"},
    {"serve.admission_wait_us", "us"},
    {"serve.execution_us", "us"},
    {"serve.queued_us", "us"},
    {"serve.queue_depth_peak", "count"},
    {"serve.coalesced_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.deadline_expired", "count"},
    {"serve.registrations", "count"},
    {"stream.refresh_ms_p50", "ms"},
    {"stream.refresh_ms_p90", "ms"},
    {"stream.renormalize_ms", "ms"},
    {"stream.publish_ms", "ms"},
    {"stream.pending_peak", "count"},
    {"stream.refreshes", "count"},
    {"stream.skipped_refreshes", "count"},
    {"stream.failed_refreshes", "count"},
    {"durable.fsync_us_p50", "us"},
    {"durable.fsync_us_p99", "us"},
    {"durable.commit_batch_records", "count"},
    {"durable.replay_records", "count"},
    {"replica.pump_us", "us"},
    {"replica.lag_records_p90", "count"},
    {"replica.apply_records_per_s", "1/s"},
    {"replica.retries", "count"},
    {"replica.timeouts", "count"},
    {"obs.tracing_overhead", "ratio"},
    {"trace.coverage", "ratio"},
    {"trace.trees", "count"},
    {"self_share.core", "ratio"},
    {"self_share.opt", "ratio"},
    {"self_share.serve", "ratio"},
    {"self_share.stream", "ratio"},
    {"self_share.durable", "ratio"},
    {"self_share.replica", "ratio"},
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 600.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args->workload == "fit_cold" ||
                           args->workload == "serve_mixed" ||
                           args->workload == "stream_live");
}

PassResult RunPass(const Args& args, double seconds, bool traced) {
  // Tracing is on at runtime by default; timed passes switch it off so no
  // call allocates trace ids or writes spans unless asked to.
  rpc::obs::SetTracingEnabled(traced);
  if (args.workload == "fit_cold") {
    return perfbench::RunFitCold(args, seconds, traced);
  }
  if (args.workload == "serve_mixed") {
    return perfbench::RunServeMixed(args, seconds, traced);
  }
  return perfbench::RunStreamLive(args, seconds, traced);
}

// The gated tail is the upper quartile of each chunk, medianed over
// chunks. Not p99 or p90: on a small shared box a sleeping thread's
// wake-up stalls for milliseconds whenever more than two cores are busy,
// so those ranks of a sub-millisecond operation track the host's
// scheduling more than the program and swing 30-500% between runs. The
// p99s are still reported, as per-layer metrics. fit_cold's handful of
// fits supports nothing higher anyway.
double TailMs(const PassResult& pass) {
  return perfbench::ChunkedQuantile(pass.op_chunks_ms, 0.75);
}

double P50Ms(const PassResult& pass) {
  return perfbench::ChunkedQuantile(pass.op_chunks_ms, 0.5);
}

bool HasOps(const PassResult& pass) { return P50Ms(pass) > 0.0; }

void AppendMetric(std::string* json, const char* name, double value,
                  const char* unit) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name,
                std::isfinite(value) ? value : 0.0, unit);
  *json += buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fit_cold|serve_mixed|stream_live "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }
  bool correct = true;
  std::int64_t attempted = 0, failed = 0;
  std::string metrics;
  if (!args.trace) {
    const PassResult pass = RunPass(args, args.seconds, false);
    correct = pass.correct && HasOps(pass);
    attempted = pass.attempted;
    failed = pass.failed;
    AppendMetric(&metrics, "setup_s", pass.setup_s, "s");
    AppendMetric(&metrics, "peak_rss_mb", perfbench::PeakRssMb(), "MB");
    AppendMetric(&metrics, "op_p50_ms", P50Ms(pass), "ms");
    AppendMetric(&metrics, "op_tail_ms", TailMs(pass), "ms");
  } else {
    const PassResult untraced = RunPass(args, args.seconds / 2, false);
    const PassResult traced = RunPass(args, args.seconds / 2, true);
    rpc::obs::SetTracingEnabled(false);
    correct = untraced.correct && traced.correct && HasOps(untraced) &&
              HasOps(traced);
    attempted = untraced.attempted + traced.attempted;
    failed = untraced.failed + traced.failed;
    // Counters and stage timings come from the untraced pass; figures only
    // spans can give come from the traced one.
    std::map<std::string, double> layer = traced.layer;
    for (const auto& [name, value] : untraced.layer) layer[name] = value;
    layer["obs.tracing_overhead"] = P50Ms(traced) / P50Ms(untraced);
    for (const MetricDef& def : kPerLayer) {
      const auto it = layer.find(def.name);
      AppendMetric(&metrics, def.name, it == layer.end() ? 0.0 : it->second,
                   def.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
