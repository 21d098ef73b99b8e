#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

namespace rpc::serve {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Same synthetic monotone model the other serve tests use — no fitting.
core::PortableRpcModel MonotoneModel(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  core::PortableRpcModel model;
  model.alpha = order::Orientation::AllBenefit(d);
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

#ifndef RPC_OBS_DISABLED
const obs::SpanRecord* FindSpan(const std::vector<obs::SpanRecord>& spans,
                                const std::string& name) {
  for (const obs::SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}
#endif

// The acceptance criterion: one Query() with trace-context produces a
// reconstructable timeline — admission -> dequeue -> execute — visible
// through the JSON exporter.
TEST(TelemetryServeTest, SingleQueryProducesSpanTimeline) {
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(3, 1)).ok());

  // An explicit nonzero id forces tracing for this query regardless of the
  // process-wide runtime switch (large constant: never collides with the
  // ids NewTraceId hands out).
  const obs::TraceId trace = 0x7e1e5ca1ab1e0001ull;
  QueryOptions options;
  options.trace_id = trace;
  const auto batch = service.Query("d", RandomRows(8, 3, 2), options);
  ASSERT_TRUE(batch.ok());
  // The trace id rides back on the QueryTrace in every build.
  EXPECT_EQ(batch->trace.trace_id, trace);

#ifdef RPC_OBS_DISABLED
  EXPECT_TRUE(obs::CollectTrace(trace).empty());
  GTEST_SKIP() << "span timeline assertions need an obs-enabled build";
#else
  const std::vector<obs::SpanRecord> spans = obs::CollectTrace(trace);
  const obs::SpanRecord* admission = FindSpan(spans, "serve.admission");
  const obs::SpanRecord* queued = FindSpan(spans, "serve.queued");
  const obs::SpanRecord* execute = FindSpan(spans, "serve.execute");
  const obs::SpanRecord* query = FindSpan(spans, "serve.query");
  ASSERT_NE(admission, nullptr);
  ASSERT_NE(queued, nullptr);
  ASSERT_NE(execute, nullptr);
  ASSERT_NE(query, nullptr);

  // Timeline shape: the query envelope opens with admission; the queued
  // wait starts once admitted and hands off to execution; the envelope
  // closes no earlier than the execution it waited for.
  EXPECT_EQ(query->start_ns, admission->start_ns);
  EXPECT_GE(queued->start_ns, admission->start_ns);
  EXPECT_GE(execute->start_ns, queued->start_ns);
  EXPECT_GE(query->end_ns, execute->end_ns);
  for (const obs::SpanRecord* span : {admission, queued, execute, query}) {
    EXPECT_GE(span->end_ns, span->start_ns);
    EXPECT_EQ(span->trace_id, trace);
  }

  // ...and the timeline is visible in the JSON exporter output.
  const std::string json = obs::JsonSnapshot(obs::Registry::Global(),
                                             /*include_spans=*/true);
  EXPECT_NE(json.find("\"name\":\"serve.query\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"serve.execute\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\":\"" + std::to_string(trace) + "\""),
            std::string::npos);
#endif
}

TEST(TelemetryServeTest, SlowQueryLogEmitsThroughTheSink) {
  obs::VectorSink sink;
  RankingService::Options options;
  options.telemetry_sink = &sink;
  options.slow_query_threshold = std::chrono::nanoseconds(1);  // everything
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 5)).ok());

  const obs::TraceId trace = 0x7e1e5ca1ab1e0003ull;
  QueryOptions qopts;
  qopts.trace_id = trace;
  ASSERT_TRUE(service.Query("d", RandomRows(4, 2, 6), qopts).ok());

  const auto slow = sink.EventsOfKind("slow_query");
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_NE(slow[0].payload.find("\"dataset\":\"d\""), std::string::npos);
  EXPECT_NE(slow[0].payload.find("\"rows\":4"), std::string::npos);
  EXPECT_NE(
      slow[0].payload.find("\"trace_id\":\"" + std::to_string(trace) + "\""),
      std::string::npos);
#ifndef RPC_OBS_DISABLED
  // The record carries the reconstructed span timeline.
  EXPECT_NE(slow[0].payload.find("\"name\":\"serve.query\""),
            std::string::npos);
#endif

  // A per-query threshold overrides the service default: a huge override
  // suppresses the record.
  QueryOptions quiet;
  quiet.slow_query_threshold = std::chrono::hours(1);
  ASSERT_TRUE(service.Query("d", RandomRows(4, 2, 7), quiet).ok());
  EXPECT_EQ(sink.EventsOfKind("slow_query").size(), 1u);
}

TEST(TelemetryServeTest, PerQueryThresholdEnablesTheLogAlone) {
  obs::VectorSink sink;
  RankingService::Options options;
  options.telemetry_sink = &sink;  // service default threshold stays 0 = off
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 8)).ok());

  ASSERT_TRUE(service.Query("d", RandomRows(4, 2, 9)).ok());
  EXPECT_TRUE(sink.EventsOfKind("slow_query").empty());

  QueryOptions loud;
  loud.slow_query_threshold = std::chrono::nanoseconds(1);
  ASSERT_TRUE(service.Query("d", RandomRows(4, 2, 10), loud).ok());
  EXPECT_EQ(sink.EventsOfKind("slow_query").size(), 1u);
}

TEST(TelemetryServeTest, ServeSeriesAreExported) {
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 11)).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(service.Query("d", RandomRows(8, 2, 12 + i)).ok());
  }
  EXPECT_EQ(service.stats().queries, 5);
  EXPECT_EQ(service.stats().rows, 40);

  const std::string text = obs::PrometheusText();
  EXPECT_NE(text.find("# TYPE rpc_serve_queries_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rpc_serve_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("rpc_serve_latency_us_count"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rpc_serve_queue_depth gauge"),
            std::string::npos);
}

}  // namespace
}  // namespace rpc::serve
