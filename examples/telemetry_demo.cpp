// telemetry_demo — the observability subsystem end to end:
//
//   1. Serve a workload (two datasets, mixed batch sizes) so the
//      registry fills with real counters and histograms.
//   2. Trace one query with an explicit trace id and reconstruct its
//      span timeline (admission -> queued -> execute) from the rings.
//   3. Slow-query log: a threshold routes offending queries — with their
//      span timelines — through a TelemetrySink.
//   4. Exporters: the Prometheus text scrape and the JSON snapshot,
//      plus the PeriodicFlusher that emits the latter on a cadence.
//
//   build/examples/telemetry_demo                # narrated walk-through
//   build/examples/telemetry_demo --prometheus   # raw scrape text only
//
// The --prometheus mode is what CI pipes into ci/check_metrics_format.py.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

namespace {

using rpc::Rng;
using rpc::linalg::Matrix;
using rpc::linalg::Vector;
using rpc::serve::RankingService;

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

}  // namespace

int main(int argc, char** argv) {
  bool prometheus_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--prometheus") == 0) prometheus_only = true;
  }

  // -- 1. a serving workload that populates the registry ----------------
  rpc::obs::VectorSink sink;
  RankingService::Options options;
  options.telemetry_sink = &sink;
  options.slow_query_threshold = std::chrono::nanoseconds(1);  // log all
  RankingService service(options);
  for (const char* id : {"countries", "journals"}) {
    const rpc::Status registered = service.RegisterDataset(
        id, MonotoneModel(id[0] == 'c' ? 4 : 6, id[0]));
    if (!registered.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   registered.ToString().c_str());
      return 1;
    }
  }
  for (int i = 0; i < 32; ++i) {
    const char* id = (i % 2 == 0) ? "countries" : "journals";
    const int d = (i % 2 == 0) ? 4 : 6;
    const auto batch =
        service.Query(id, RandomRows(1 + (i % 3) * 40, d,
                                     100 + static_cast<uint64_t>(i)));
    if (!batch.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   batch.status().ToString().c_str());
      return 1;
    }
  }

  // -- 2. one traced query, timeline reconstructed from the rings -------
  const rpc::obs::TraceId trace = 0xDE40;  // explicit id forces tracing
  rpc::serve::QueryOptions traced;
  traced.trace_id = trace;
  const auto traced_batch =
      service.Query("countries", RandomRows(64, 4, 7), traced);
  if (!traced_batch.ok()) {
    std::fprintf(stderr, "traced query failed: %s\n",
                 traced_batch.status().ToString().c_str());
    return 1;
  }

  if (prometheus_only) {
    // Raw scrape text on stdout, nothing else — CI parses this.
    std::fputs(rpc::obs::PrometheusText().c_str(), stdout);
    return 0;
  }

  std::printf("== traced query timeline (trace_id=%llu) ==\n",
              static_cast<unsigned long long>(trace));
  const std::vector<rpc::obs::SpanRecord> spans =
      rpc::obs::CollectTrace(trace);
  if (spans.empty()) {
    std::printf("(no spans: RPC_OBS_DISABLED build)\n");
  }
  for (const rpc::obs::SpanRecord& span : spans) {
    std::printf("  %-16s thread=%u  +%8.1f us  dur=%8.1f us\n", span.name,
                span.thread,
                static_cast<double>(span.start_ns - spans[0].start_ns) / 1e3,
                static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }

  // -- 3. the slow-query log the sink captured ---------------------------
  const auto slow = sink.EventsOfKind("slow_query");
  std::printf("\n== slow-query log (%zu events, threshold 1ns) ==\n",
              slow.size());
  if (!slow.empty()) {
    std::printf("last: %.240s...\n", slow.back().payload.c_str());
  }

  // -- 4. exporters ------------------------------------------------------
  {
    rpc::obs::PeriodicFlusher::Options flush_options;
    flush_options.period = std::chrono::milliseconds(20);
    rpc::obs::PeriodicFlusher flusher(&sink, flush_options);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }  // destructor emits one final "metrics" snapshot
  std::printf("\n== PeriodicFlusher emitted %zu metrics snapshot(s) ==\n",
              sink.EventsOfKind("metrics").size());

  const std::string json = rpc::obs::JsonSnapshot();
  std::printf("\n== JSON snapshot: %zu bytes ==\n%.400s...\n", json.size(),
              json.c_str());

  std::printf("\n== Prometheus scrape ==\n%s",
              rpc::obs::PrometheusText().c_str());
  return 0;
}
