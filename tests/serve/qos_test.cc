// QoS behaviour of the unified Query entry point: deadline enforcement in
// every phase (admission, queued, mid-execution), priority-class shedding
// under saturation, micro-batch coalescing bit-identity, and the two
// admission policies.
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

namespace rpc::serve {
namespace {

using linalg::Matrix;
using linalg::Vector;

// Same synthetic monotone model family as ranking_service_test.cc: no
// fitting needed, so the QoS tests spend their time in the serving path,
// not in training.
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

// ---------------------------------------------------------------------------
// Admission: default options block for queue room, kReject sheds.

// A backlogged service (one worker, a one-deep queue, one-row segments)
// still completes a default-options Query: admission waits for room instead
// of refusing, and the result equals the idle service's bit for bit.
TEST(QosTest, DefaultQueryBlocksForAdmission) {
  RankingService idle;
  ASSERT_TRUE(idle.RegisterDataset("d", MonotoneModel(3, 7)).ok());
  RankingService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;
  options.segment_rows = 1;
  RankingService backlogged(options);
  ASSERT_TRUE(backlogged.RegisterDataset("d", MonotoneModel(3, 7)).ok());
  const Matrix rows = RandomRows(512, 3, 8);

  const auto want = idle.Query("d", rows);
  const auto got = backlogged.Query("d", rows);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->scores.size(), want->scores.size());
  for (int i = 0; i < rows.rows(); ++i) {
    EXPECT_EQ(got->scores[i], want->scores[i]) << "row " << i;
    EXPECT_EQ(got->ranks[static_cast<size_t>(i)],
              want->ranks[static_cast<size_t>(i)])
        << "row " << i;
  }
  EXPECT_EQ(backlogged.stats().rejected, 0);
}

TEST(QosTest, RejectAdmissionShedsWithFailedPrecondition) {
  QueryOptions reject;
  reject.admission = AdmissionPolicy::kReject;
  // On an idle service a kReject query is admitted and scores exactly like
  // a default one...
  RankingService idle;
  ASSERT_TRUE(idle.RegisterDataset("d", MonotoneModel(2, 9)).ok());
  const Matrix small = RandomRows(16, 2, 10);
  const auto shed_free = idle.Query("d", small, reject);
  const auto blocking = idle.Query("d", small);
  ASSERT_TRUE(shed_free.ok());
  ASSERT_TRUE(blocking.ok());
  for (int i = 0; i < small.rows(); ++i) {
    EXPECT_EQ(shed_free->scores[i], blocking->scores[i]) << "row " << i;
  }

  // ...and under backlog it refuses with kFailedPrecondition.
  RankingService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;
  options.segment_rows = 1;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 11)).ok());
  const Matrix rows = RandomRows(4096, 2, 12);
  StatusCode code = StatusCode::kOk;
  for (int attempt = 0; attempt < 3 && code == StatusCode::kOk; ++attempt) {
    const auto batch = service.Query("d", rows, reject);
    if (!batch.ok()) code = batch.status().code();
  }
  EXPECT_EQ(code, StatusCode::kFailedPrecondition);
  EXPECT_GE(service.stats().rejected, 1);
}

// ---------------------------------------------------------------------------
// Deadline phase 1: expired before admission (fully deterministic).

TEST(QosTest, DeadlineExpiredBeforeAdmissionNeverTouchesTheQueue) {
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 13)).ok());

  QueryOptions options;
  options.deadline = QueryDeadline(std::chrono::seconds(-1));  // already past
  const auto batch = service.Query("d", RandomRows(8, 2, 14), options);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.queries, 0);
  EXPECT_EQ(stats.segments, 0);  // rejected before any segment was admitted
  EXPECT_EQ(stats.peak_queue_depth, 0);

  // The service is untouched and fully usable.
  EXPECT_TRUE(service.Query("d", RandomRows(8, 2, 15)).ok());
}

// ---------------------------------------------------------------------------
// Deadline phase 2: expiry while the query is queued / blocked on admission.
// A tiny queue with a slow single drain cannot absorb 50k one-row segments
// within the budget, so the deadline passes either while blocked pushing
// (kTimeout) or while admitted segments sit in the queue (dequeue check) —
// both must surface as kDeadlineExceeded with the query accounted.

TEST(QosTest, DeadlineExpiresWhileQueuedOrBlocked) {
  RankingService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 1;
  options.segment_rows = 1;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 16)).ok());

  QueryOptions qopts;
  qopts.deadline = QueryDeadline(std::chrono::milliseconds(5));
  const auto batch = service.Query("d", RandomRows(50000, 2, 17), qopts);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service.stats().deadline_expired, 1);

  // No zombie work: once the failed Query returned, pending segments drain
  // promptly (expired ones are dropped at dequeue) and the service answers
  // fresh queries.
  const auto after = service.Query("d", RandomRows(8, 2, 18));
  EXPECT_TRUE(after.ok());
}

// ---------------------------------------------------------------------------
// Deadline phase 3: expiry mid-execution. One huge segment is cancelled
// between rows by the cooperative stride check — the worker bails instead
// of scoring 200k rows for a caller that already gave up.

TEST(QosTest, DeadlineExpiresMidExecutionCancelsCooperatively) {
  RankingService::Options options;
  options.num_threads = 2;
  options.segment_rows = 1 << 20;  // the whole query is one segment
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(4, 19)).ok());

  const Matrix rows = RandomRows(200000, 4, 20);
  QueryOptions qopts;
  qopts.deadline = QueryDeadline(std::chrono::milliseconds(2));
  const auto batch = service.Query("d", rows, qopts);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kDeadlineExceeded);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_GE(stats.expired_segments, 1);  // the segment was abandoned, not run
  EXPECT_EQ(stats.queries, 0);

  // Cancellation left the service healthy.
  const auto after = service.Query("d", RandomRows(8, 4, 21));
  EXPECT_TRUE(after.ok());
}

// ---------------------------------------------------------------------------
// Priority classes: under a queue saturated by batch-class load, background
// kReject traffic is shed (its watermark is the lowest) while interactive
// queries — which may use the full queue and are popped first — all get
// through. This is the no-priority-inversion guarantee.

TEST(QosTest, BackgroundShedsWhileInteractiveSucceedsUnderSaturation) {
  RankingService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 4;  // watermarks: interactive 4, batch 3, bg 2
  options.segment_rows = 1;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 22)).ok());
  // A second dataset whose *default* class is background: queries without
  // an explicit priority must inherit it (DatasetOptions routing).
  DatasetOptions bg_dataset;
  bg_dataset.default_priority = QueryPriority::kBackground;
  ASSERT_TRUE(
      service.RegisterDataset("bg", MonotoneModel(2, 23), bg_dataset).ok());

  // Saturate from a batch-class producer: its blocking pushes hold queue
  // occupancy at the batch watermark (3) for the whole big query.
  std::atomic<bool> saturator_done{false};
  const Matrix big = RandomRows(50000, 2, 24);
  std::thread saturator([&] {
    QueryOptions batch_opts;
    batch_opts.priority = QueryPriority::kBatch;
    EXPECT_TRUE(service.Query("d", big, batch_opts).ok());
    saturator_done = true;
  });

  const Matrix one = RandomRows(1, 2, 25);
  QueryOptions bg_reject;  // priority comes from the dataset default
  bg_reject.admission = AdmissionPolicy::kReject;
  int background_shed = 0;
  while (!saturator_done.load() && background_shed == 0) {
    for (int i = 0; i < 100 && background_shed == 0; ++i) {
      if (!service.Query("bg", one, bg_reject).ok()) ++background_shed;
    }
  }
  // Interactive blocking queries ride lane 0 (popped first, full-capacity
  // watermark): every one of them completes even against the saturator.
  QueryOptions interactive;
  interactive.priority = QueryPriority::kInteractive;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(service.Query("d", one, interactive).ok()) << "query " << i;
  }
  saturator.join();

  EXPECT_GE(background_shed, 1);
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.shed_by_priority[static_cast<size_t>(
                QueryPriority::kBackground)],
            1);
  EXPECT_EQ(stats.shed_by_priority[static_cast<size_t>(
                QueryPriority::kInteractive)],
            0);
  EXPECT_GE(stats.peak_queue_depth, 1);
  EXPECT_LE(stats.peak_queue_depth, options.queue_capacity);
}

// ---------------------------------------------------------------------------
// Coalescing: two small queries arriving within the delay window share one
// execution segment, and riding a group never changes a single score bit.

TEST(QosTest, CoalescedQueriesAreBitIdenticalAndShareOneSegment) {
  RankingService::Options options;
  options.num_threads = 2;
  options.max_coalesce_delay = std::chrono::milliseconds(250);
  options.coalesce_max_rows = 4;
  options.coalesce_flush_rows = 2;  // the second rider seals the group
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(3, 26)).ok());

  const Matrix row_a = RandomRows(1, 3, 27);
  const Matrix row_b = RandomRows(1, 3, 28);

  // References through the same service with coalescing opted out.
  QueryOptions solo;
  solo.allow_coalesce = false;
  const auto ref_a = service.Query("d", row_a, solo);
  const auto ref_b = service.Query("d", row_b, solo);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());
  const std::int64_t segments_before = service.stats().segments;

  // Leader opens the group; the joiner fills it to coalesce_flush_rows and
  // seals. (If the thread starts late the roles swap — same outcome.)
  Result<RankedBatch> got_a = Status::Internal("unset");
  std::thread leader([&] { got_a = service.Query("d", row_a); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto got_b = service.Query("d", row_b);
  leader.join();

  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(got_a->scores[0], ref_a->scores[0]);  // bit-identity
  EXPECT_EQ(got_b->scores[0], ref_b->scores[0]);
  EXPECT_TRUE(got_a->trace.coalesced);
  EXPECT_TRUE(got_b->trace.coalesced);
  EXPECT_EQ(got_a->trace.segments, 1);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.coalesced_queries, 2);
  // The pair cost exactly one more execution segment, not two.
  EXPECT_EQ(stats.segments - segments_before, 1);
}

TEST(QosTest, SoloLeaderFlushesAtTheDelayBoundary) {
  RankingService::Options options;
  options.num_threads = 2;
  options.max_coalesce_delay = std::chrono::milliseconds(5);
  options.coalesce_max_rows = 4;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 29)).ok());

  const Matrix row = RandomRows(1, 2, 30);
  QueryOptions solo;
  solo.allow_coalesce = false;
  const auto ref = service.Query("d", row, solo);
  ASSERT_TRUE(ref.ok());

  const auto got = service.Query("d", row);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->scores[0], ref->scores[0]);
  // Nobody joined: the group executed solo after donating the delay...
  EXPECT_FALSE(got->trace.coalesced);
  EXPECT_EQ(service.stats().coalesced_queries, 0);
  // ...which shows up as admission wait, not execution time.
  EXPECT_GE(got->trace.admission_wait, std::chrono::milliseconds(4));
}

// ---------------------------------------------------------------------------
// Observability: peak_queue_depth, QueryTrace and the latency histogram.

TEST(QosTest, PeakQueueDepthTracksAdmissionHighWaterMark) {
  RankingService::Options options;
  options.num_threads = 2;
  options.queue_capacity = 8;
  options.segment_rows = 1;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 31)).ok());
  EXPECT_EQ(service.stats().peak_queue_depth, 0);

  ASSERT_TRUE(service.Query("d", RandomRows(64, 2, 32)).ok());
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.peak_queue_depth, 1);
  EXPECT_LE(stats.peak_queue_depth, options.queue_capacity);
}

TEST(QosTest, TraceAndLatencyHistogramArePopulated) {
  RankingService::Options options;
  options.num_threads = 2;
  options.segment_rows = 32;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(3, 33)).ok());

  const auto batch = service.Query("d", RandomRows(100, 3, 34));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->trace.segments, 4);  // ceil(100 / 32)
  EXPECT_GE(batch->trace.admission_wait.count(), 0);
  EXPECT_GT(batch->trace.execution_time.count(), 0);
  EXPECT_FALSE(batch->trace.coalesced);

  ASSERT_TRUE(service.Query("d", RandomRows(3, 3, 35)).ok());
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.latency.total(), stats.queries);
  EXPECT_GT(stats.latency.QuantileUpperBoundUs(0.5), 0.0);
  EXPECT_GE(stats.latency.QuantileUpperBoundUs(0.99),
            stats.latency.QuantileUpperBoundUs(0.5));
}

TEST(QosTest, LatencyHistogramBucketsArePowersOfTwoMicroseconds) {
  using std::chrono::microseconds;
  EXPECT_EQ(LatencyHistogram::BucketFor(std::chrono::nanoseconds(100)), 0);
  EXPECT_EQ(LatencyHistogram::BucketFor(microseconds(1)), 0);
  EXPECT_EQ(LatencyHistogram::BucketFor(microseconds(2)), 1);
  EXPECT_EQ(LatencyHistogram::BucketFor(microseconds(3)), 1);
  EXPECT_EQ(LatencyHistogram::BucketFor(microseconds(4)), 2);
  EXPECT_EQ(LatencyHistogram::BucketFor(microseconds(1000)), 9);
  EXPECT_EQ(LatencyHistogram::BucketFor(std::chrono::seconds(100)),
            LatencyHistogram::kNumBuckets - 1);

  LatencyHistogram h;
  EXPECT_EQ(h.total(), 0);
  EXPECT_EQ(h.QuantileUpperBoundUs(0.5), 0.0);
  h.buckets[3] = 9;   // nine queries in [8, 16) us
  h.buckets[9] = 1;   // one slow outlier in [512, 1024) us
  EXPECT_EQ(h.total(), 10);
  EXPECT_EQ(h.QuantileUpperBoundUs(0.5), 16.0);
  EXPECT_EQ(h.QuantileUpperBoundUs(0.99), 1024.0);
}

}  // namespace
}  // namespace rpc::serve
