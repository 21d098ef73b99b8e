#include "opt/incremental_projector.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "curve/bernstein.h"
#include "opt/batch_projection.h"
#include "opt/curve_projection.h"

namespace rpc::opt {
namespace {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

BezierCurve MonotoneCubic(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  return BezierCurve(control);
}

Matrix RandomData(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) data(i, j) = rng.Uniform(-0.1, 1.1);
  }
  return data;
}

// Nudges the interior control points by `step`, mimicking one outer
// iteration of the alternating scheme.
BezierCurve Perturbed(const BezierCurve& curve, double step, uint64_t seed) {
  Rng rng(seed);
  Matrix control = curve.control_points();
  for (int i = 0; i < control.rows(); ++i) {
    control(i, 1) += rng.Uniform(-step, step);
    control(i, 2) += rng.Uniform(-step, step);
  }
  return BezierCurve(control);
}

// The first call (and any full resync) must reproduce ProjectRowsBatch
// bitwise: same per-row arithmetic, same ordered J reduction.
TEST(IncrementalProjectorTest, FirstCallMatchesBatchBitwise) {
  const BezierCurve curve = MonotoneCubic(3, 7);
  const Matrix data = RandomData(157, 3, 8);
  for (ProjectionMethod method :
       {ProjectionMethod::kGoldenSection, ProjectionMethod::kQuinticRoots,
        ProjectionMethod::kGridOnly, ProjectionMethod::kNewton}) {
    ProjectionOptions projection;
    projection.method = method;
    double batch_j = 0.0;
    const Vector batch =
        ProjectRowsBatch(curve, data, projection, nullptr, &batch_j);

    IncrementalProjector incremental;
    IncrementalProjectorOptions options;
    options.projection = projection;
    incremental.Bind(data, options, nullptr);
    double j = 0.0;
    Vector scores;
    incremental.ProjectInto(curve, &scores, &j);
    EXPECT_TRUE(incremental.last_was_full());
    ASSERT_EQ(scores.size(), batch.size());
    for (int i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], batch[i]) << "row " << i;
    }
    EXPECT_EQ(j, batch_j);
  }
}

// Warm-started calls are bit-identical for every thread count — the
// ProjectRowsBatch determinism contract extends to the incremental engine.
TEST(IncrementalProjectorTest, WarmCallsBitIdenticalAcrossThreadCounts) {
  const BezierCurve start = MonotoneCubic(4, 17);
  const Matrix data = RandomData(211, 4, 18);  // odd n: ragged chunks

  // Reference: serial trajectory over three slightly moving curves.
  IncrementalProjector serial;
  serial.Bind(data, {}, nullptr);
  Vector ref_scores;
  double ref_j = 0.0;
  BezierCurve curve = start;
  for (int t = 0; t < 3; ++t) {
    serial.ProjectInto(curve, &ref_scores, &ref_j);
    curve = Perturbed(curve, 2e-3, 100 + static_cast<uint64_t>(t));
  }

  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    IncrementalProjector incremental;
    incremental.Bind(data, {}, &pool);
    Vector scores;
    double j = 0.0;
    BezierCurve moving = start;
    for (int t = 0; t < 3; ++t) {
      incremental.ProjectInto(moving, &scores, &j);
      moving = Perturbed(moving, 2e-3, 100 + static_cast<uint64_t>(t));
    }
    EXPECT_FALSE(incremental.last_was_full());
    ASSERT_EQ(scores.size(), ref_scores.size());
    for (int i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], ref_scores[i]) << "threads=" << threads
                                          << " row " << i;
    }
    EXPECT_EQ(j, ref_j) << "threads=" << threads;
  }
}

// After a small curve move the warm projection must agree with the full
// global search to projection tolerance — the locality assumption the
// engine exploits, on the regime it targets.
TEST(IncrementalProjectorTest, WarmMatchesFullSearchAfterSmallMove) {
  const BezierCurve start = MonotoneCubic(3, 27);
  const Matrix data = RandomData(300, 3, 28);
  IncrementalProjector incremental;
  incremental.Bind(data, {}, nullptr);
  double j = 0.0;
  Vector first;
  incremental.ProjectInto(start, &first, &j);

  const BezierCurve moved = Perturbed(start, 1e-3, 29);
  double warm_j = 0.0;
  Vector warm;
  incremental.ProjectInto(moved, &warm, &warm_j);
  EXPECT_FALSE(incremental.last_was_full());

  double full_j = 0.0;
  const Vector full = ProjectRowsBatch(moved, data, {}, nullptr, &full_j);
  for (int i = 0; i < warm.size(); ++i) {
    // Same basin: the indices agree to well under a grid cell. At shallow
    // minima Newton (|g| < tol) and GSS (bracket < tol) stop up to ~1e-5
    // apart in s, so the binding check is on the objective: the warm
    // distance matches the global optimum's.
    EXPECT_NEAR(warm[i], full[i], 1e-3) << "row " << i;
    const double warm_dist = moved.SquaredDistanceAt(data.Row(i), warm[i]);
    const double full_dist = moved.SquaredDistanceAt(data.Row(i), full[i]);
    EXPECT_NEAR(warm_dist, full_dist, 1e-9 * (1.0 + full_dist))
        << "row " << i;
  }
  EXPECT_NEAR(warm_j, full_j, 1e-8 * (1.0 + full_j));
}

// A large curve move invalidates every local bracket; the suspect checks
// must kick rows back to the global search rather than silently keeping a
// wrong local minimum, so warm results still match the full search.
TEST(IncrementalProjectorTest, LargeMoveFallsBackToGlobalSearch) {
  const BezierCurve start = MonotoneCubic(2, 37);
  const Matrix data = RandomData(200, 2, 38);
  IncrementalProjectorOptions options;
  options.resync_period = 1000;  // never resync: only the fallbacks guard
  IncrementalProjector incremental;
  incremental.Bind(data, options, nullptr);
  double j = 0.0;
  Vector first;
  incremental.ProjectInto(start, &first, &j);

  const BezierCurve moved = Perturbed(start, 0.3, 39);
  double warm_j = 0.0;
  Vector warm;
  incremental.ProjectInto(moved, &warm, &warm_j);
  EXPECT_GT(incremental.last_fallback_count(), 0);

  double full_j = 0.0;
  const Vector full = ProjectRowsBatch(moved, data, {}, nullptr, &full_j);
  for (int i = 0; i < warm.size(); ++i) {
    EXPECT_NEAR(warm[i], full[i], 1e-3) << "row " << i;
    const double warm_dist = moved.SquaredDistanceAt(data.Row(i), warm[i]);
    const double full_dist = moved.SquaredDistanceAt(data.Row(i), full[i]);
    EXPECT_NEAR(warm_dist, full_dist, 1e-9 * (1.0 + full_dist))
        << "row " << i;
  }
}

// resync_period <= 1 degenerates to the full path on every call.
TEST(IncrementalProjectorTest, ResyncEveryCallMatchesBatch) {
  const BezierCurve start = MonotoneCubic(3, 47);
  const Matrix data = RandomData(120, 3, 48);
  IncrementalProjectorOptions options;
  options.resync_period = 1;
  IncrementalProjector incremental;
  incremental.Bind(data, options, nullptr);
  BezierCurve curve = start;
  for (int t = 0; t < 3; ++t) {
    double j = 0.0;
    Vector scores;
    incremental.ProjectInto(curve, &scores, &j);
    EXPECT_TRUE(incremental.last_was_full());
    double batch_j = 0.0;
    const Vector batch = ProjectRowsBatch(curve, data, {}, nullptr, &batch_j);
    for (int i = 0; i < scores.size(); ++i) {
      EXPECT_EQ(scores[i], batch[i]) << "t=" << t << " row " << i;
    }
    EXPECT_EQ(j, batch_j);
    curve = Perturbed(curve, 5e-3, 200 + static_cast<uint64_t>(t));
  }
}

// Fused accumulation: attaching per-segment accumulators must not change
// any projection output, and the segment-merged Gram/cross totals must be
// bit-identical to a separate BernsteinDesignAccumulator sweep over the
// same scores — for 1 and more worker threads, warm and full calls alike.
// Full calls (every call at resync_period 1, the learner's kFull engine)
// must also reproduce ProjectRowsBatch's scores and J bitwise.
TEST(IncrementalProjectorTest, FusedAccumulationMatchesSeparateSweep) {
  const int n = 150;
  const int d = 3;
  const int segment_rows = 64;  // several segments at this n
  const BezierCurve start = MonotoneCubic(d, 67);
  const Matrix data = RandomData(n, d, 68);
  const int num_segments = (n + segment_rows - 1) / segment_rows;

  for (int resync_period : {8, 1}) {
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(testing::Message() << "resync_period " << resync_period);
      ThreadPool pool(threads);
      IncrementalProjector plain;
      IncrementalProjector fused;
      IncrementalProjectorOptions options;
      options.resync_period = resync_period;
      plain.Bind(data, options, &pool);
      fused.Bind(data, options, &pool);
      std::vector<curve::BernsteinDesignAccumulator> segments(
          static_cast<size_t>(num_segments));
      for (auto& segment : segments) segment.Bind(3, d);
      fused.SetFusedAccumulators(&segments, segment_rows);

      BezierCurve curve = start;
      for (int t = 0; t < 3; ++t) {
        double j_plain = 0.0, j_fused = 0.0;
        Vector s_plain;
        plain.ProjectInto(curve, &s_plain, &j_plain);
        Vector s_fused;
        fused.ProjectInto(curve, &s_fused, &j_fused);
        EXPECT_EQ(j_plain, j_fused) << "threads " << threads << " t " << t;
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(s_plain[i], s_fused[i])
              << "threads " << threads << " t " << t << " row " << i;
        }
        EXPECT_EQ(fused.last_was_full(), resync_period == 1 || t == 0);
        if (fused.last_was_full()) {
          double j_batch = 0.0;
          const Vector batch =
              ProjectRowsBatch(curve, data, {}, nullptr, &j_batch);
          EXPECT_EQ(j_fused, j_batch) << "threads " << threads << " t " << t;
          for (int i = 0; i < n; ++i) {
            ASSERT_EQ(s_fused[i], batch[i])
                << "threads " << threads << " t " << t << " row " << i;
          }
        }
        // Segment-ordered merge == the separate sweep with the same fixed
        // segmentation, bit for bit (float addition is not associative, so
        // the reference must segment identically).
        curve::BernsteinDesignAccumulator merged;
        merged.Bind(3, d);
        for (const auto& segment : segments) merged.Merge(segment);
        curve::BernsteinDesignAccumulator reference;
        reference.Bind(3, d);
        for (int seg = 0; seg < num_segments; ++seg) {
          curve::BernsteinDesignAccumulator partial;
          partial.Bind(3, d);
          const int begin = seg * segment_rows;
          const int end = std::min(n, begin + segment_rows);
          for (int i = begin; i < end; ++i) {
            partial.AccumulateRow(s_plain[i], data.RowPtr(i));
          }
          reference.Merge(partial);
        }
        for (int a = 0; a < 4; ++a) {
          for (int b = 0; b < 4; ++b) {
            EXPECT_EQ(merged.gram()(a, b), reference.gram()(a, b));
          }
          for (int b = 0; b < d; ++b) {
            EXPECT_EQ(merged.cross()(b, a), reference.cross()(b, a));
          }
        }
        curve = Perturbed(curve, 3e-3, 300 + static_cast<uint64_t>(t));
      }
    }
  }
}

}  // namespace
}  // namespace rpc::opt
