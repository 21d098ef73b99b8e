#include "opt/incremental_projector.h"

#include <algorithm>
#include <cmath>
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
    const Vector scores = incremental.Project(curve, &j);
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
    ref_scores = serial.Project(curve, &ref_j);
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
      scores = incremental.Project(moving, &j);
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
  incremental.Project(start, &j);

  const BezierCurve moved = Perturbed(start, 1e-3, 29);
  double warm_j = 0.0;
  const Vector warm = incremental.Project(moved, &warm_j);
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
  incremental.Project(start, &j);

  const BezierCurve moved = Perturbed(start, 0.3, 39);
  double warm_j = 0.0;
  const Vector warm = incremental.Project(moved, &warm_j);
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
    const Vector scores = incremental.Project(curve, &j);
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

// Exported warm-start state re-imported into a fresh projector must make
// its first call warm and land on the same per-row results the original
// trajectory would have produced — the streaming tier's refresh seeding.
TEST(IncrementalProjectorTest, ImportedStateWarmStartsBitIdentically) {
  const BezierCurve start = MonotoneCubic(3, 57);
  const Matrix data = RandomData(140, 3, 58);
  IncrementalProjectorOptions options;

  IncrementalProjector original;
  original.Bind(data, options, nullptr);
  double j0 = 0.0;
  const Vector s0 = original.Project(start, &j0);
  const BezierCurve moved = Perturbed(start, 2e-3, 59);
  double j1 = 0.0;
  const Vector s1 = original.Project(moved, &j1);
  EXPECT_FALSE(original.last_was_full());

  Vector exported_s, exported_dist;
  original.ExportState(&exported_s, &exported_dist);
  ASSERT_EQ(exported_s.size(), data.rows());
  ASSERT_EQ(exported_dist.size(), data.rows());
  for (int i = 0; i < s1.size(); ++i) EXPECT_EQ(exported_s[i], s1[i]);

  // A fresh projector seeded with the *first* call's state replays the
  // second call warm. The imported path has no previous-distance
  // certificate (infinity sentinel), so results can differ from the
  // original warm call only where the original fell back on the distance
  // check; with this small a move there are none and the replay must be
  // bitwise identical.
  IncrementalProjector seeded;
  seeded.Bind(data, options, nullptr);
  seeded.ImportState(s0, start.control_points());
  double j_seeded = 0.0;
  const Vector s_seeded = seeded.Project(moved, &j_seeded);
  EXPECT_FALSE(seeded.last_was_full());
  for (int i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s_seeded[i], s1[i]) << "row " << i;
  }
  EXPECT_EQ(j_seeded, j1);
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
        const Vector s_plain = plain.Project(curve, &j_plain);
        const Vector s_fused = fused.Project(curve, &j_fused);
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

// Adaptive brackets: once rows settle the probe is skipped, yet results
// stay pinned to the full search by the certified-bound fallback — the
// final projection of a converged trajectory matches the global search.
TEST(IncrementalProjectorTest, AdaptiveBracketsSettleAndStayCorrect) {
  const BezierCurve start = MonotoneCubic(4, 77);
  const Matrix data = RandomData(200, 4, 78);
  IncrementalProjectorOptions options;
  options.adaptive_brackets = true;
  options.resync_period = 1000;  // no resync inside this test
  IncrementalProjector adaptive;
  adaptive.Bind(data, options, nullptr);

  // A stationary curve: after two calls every row's drift is ~0, so call
  // three onward must use the probe-free fast path for almost all rows.
  double j = 0.0;
  (void)adaptive.Project(start, &j);
  (void)adaptive.Project(start, &j);
  EXPECT_EQ(adaptive.last_probe_skip_count(), 0);  // drift history not yet set
  (void)adaptive.Project(start, &j);
  EXPECT_GE(adaptive.last_probe_skip_count(), data.rows() * 9 / 10);

  const Vector scores = adaptive.Project(start, &j);
  double j_batch = 0.0;
  const Vector batch = ProjectRowsBatch(start, data, {}, nullptr, &j_batch);
  for (int i = 0; i < scores.size(); ++i) {
    // The probe-free Newton path refines to the same stationary point the
    // full search found (both stop at tol 1e-10; allow that slack).
    EXPECT_NEAR(scores[i], batch[i], 1e-6) << "row " << i;
  }
  EXPECT_NEAR(j, j_batch, 1e-9 * (1.0 + std::fabs(j_batch)));
}

}  // namespace
}  // namespace rpc::opt
