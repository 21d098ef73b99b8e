#include "opt/batch_projection.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "opt/curve_projection.h"

namespace rpc::opt {
namespace {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

constexpr ProjectionMethod kAllMethods[] = {
    ProjectionMethod::kGoldenSection, ProjectionMethod::kQuinticRoots,
    ProjectionMethod::kGridOnly, ProjectionMethod::kNewton};

const char* MethodName(ProjectionMethod method) {
  switch (method) {
    case ProjectionMethod::kGoldenSection: return "GoldenSection";
    case ProjectionMethod::kQuinticRoots: return "QuinticRoots";
    case ProjectionMethod::kGridOnly: return "GridOnly";
    case ProjectionMethod::kNewton: return "Newton";
  }
  return "?";
}

// A monotone-ish random cubic in d dimensions (the Horner fast path).
BezierCurve RandomCubic(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.5);
    control(i, 2) = rng.Uniform(0.5, 0.9);
    control(i, 3) = 1.0;
  }
  return BezierCurve(control);
}

// A random quadratic (degree != 3 exercises the de Casteljau scratch path).
BezierCurve RandomQuadratic(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 3);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.2, 0.8);
    control(i, 2) = 1.0;
  }
  return BezierCurve(control);
}

Matrix RandomData(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      data(i, j) = rng.Uniform(-0.2, 1.2);  // includes beyond-end points
    }
  }
  return data;
}

// Batch scores and total J must be bit-identical to the serial path for
// every method and any thread count (the engine's core contract).
TEST(BatchProjectionTest, BitIdenticalToSerialAcrossMethodsAndThreads) {
  const int n = 257;  // odd, so chunks are ragged
  for (const BezierCurve& curve :
       {RandomCubic(3, 11), RandomQuadratic(3, 12)}) {
    const Matrix data = RandomData(n, curve.dimension(), 99);
    for (ProjectionMethod method : kAllMethods) {
      ProjectionOptions options;
      options.method = method;
      double serial_total = 0.0;
      const Vector serial =
          ProjectRows(curve, data, options, &serial_total);
      for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        double batch_total = 0.0;
        const Vector batch =
            ProjectRowsBatch(curve, data, options, &pool, &batch_total);
        ASSERT_EQ(batch.size(), n);
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(batch[i], serial[i])
              << MethodName(method) << " threads=" << threads << " row " << i;
        }
        EXPECT_EQ(batch_total, serial_total)
            << MethodName(method) << " threads=" << threads;
      }
    }
  }
}

// The per-call convenience wrapper agrees bitwise with the batch engine.
TEST(BatchProjectionTest, MatchesProjectOntoCurvePerPoint) {
  const BezierCurve curve = RandomCubic(4, 21);
  const Matrix data = RandomData(64, 4, 22);
  for (ProjectionMethod method : kAllMethods) {
    ProjectionOptions options;
    options.method = method;
    const Vector batch = ProjectRowsBatch(curve, data, options, nullptr);
    for (int i = 0; i < data.rows(); ++i) {
      const ProjectionResult single =
          ProjectOntoCurve(curve, data.Row(i), options);
      EXPECT_EQ(batch[i], single.s) << MethodName(method) << " row " << i;
    }
  }
}

TEST(BatchProjectionTest, NullPoolAndSerialPoolAgree) {
  const BezierCurve curve = RandomCubic(2, 31);
  const Matrix data = RandomData(50, 2, 32);
  ThreadPool serial_pool(1);
  double a = 0.0;
  double b = 0.0;
  const Vector no_pool = ProjectRowsBatch(curve, data, {}, nullptr, &a);
  const Vector one_thread =
      ProjectRowsBatch(curve, data, {}, &serial_pool, &b);
  for (int i = 0; i < data.rows(); ++i) {
    EXPECT_EQ(no_pool[i], one_thread[i]);
  }
  EXPECT_EQ(a, b);
}

TEST(BatchProjectionTest, EmptyDataReturnsEmptyScores) {
  const BezierCurve curve = RandomCubic(3, 41);
  ThreadPool pool(4);
  double total = -1.0;
  const Vector scores =
      ProjectRowsBatch(curve, Matrix(0, 3), {}, &pool, &total);
  EXPECT_EQ(scores.size(), 0);
  EXPECT_EQ(total, 0.0);
}

// ProjectionResult::evaluations must count every evaluation the solver
// performed — no more, no fewer. The workspace's own counters are the
// ground truth: objective (squared-distance) evaluations for all methods,
// plus stationarity evaluations for kNewton.
TEST(BatchProjectionTest, EvaluationAccountingConsistentAcrossMethods) {
  const BezierCurve curve = RandomCubic(3, 51);
  const Matrix data = RandomData(40, 3, 52);
  for (ProjectionMethod method : kAllMethods) {
    ProjectionOptions options;
    options.method = method;
    ProjectionWorkspace workspace;
    workspace.Bind(curve, options);
    std::int64_t reported = 0;
    for (int i = 0; i < data.rows(); ++i) {
      reported += workspace.Project(data.RowPtr(i)).evaluations;
    }
    EXPECT_EQ(reported, workspace.objective_evaluations() +
                            workspace.stationarity_evaluations())
        << MethodName(method);
  }
}

// Regression for the double-counted s = 1 endpoint probe in the Newton
// method: for a point past the best end of a straight diagonal the grid
// pass costs g+1 objective evaluations and the single boundary bracket's
// final candidate one more — the boundary probe must reuse the grid value
// instead of evaluating (and counting) s = 1 again.
TEST(BatchProjectionTest, NewtonBoundaryProbeIsNotDoubleCounted) {
  const BezierCurve line =
      BezierCurve(Matrix{{0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0},
                         {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}});
  ProjectionOptions options;
  options.method = ProjectionMethod::kNewton;
  const int g = options.grid_points;
  ProjectionWorkspace workspace;
  workspace.Bind(line, options);
  const double x[2] = {2.0, 2.0};
  const ProjectionResult result = workspace.Project(x);
  EXPECT_NEAR(result.s, 1.0, 1e-7);
  EXPECT_EQ(workspace.objective_evaluations(), g + 2);
  EXPECT_EQ(result.evaluations, workspace.objective_evaluations() +
                                    workspace.stationarity_evaluations());
}

// Larger s wins ties through the batch path too (the sup of Eq. A-2).
TEST(BatchProjectionTest, SupTieBreakSurvivesBatch) {
  // Symmetric arch: (0.5, far above) is equidistant from both flanks.
  const BezierCurve arch =
      BezierCurve(Matrix{{0.0, 0.25, 0.75, 1.0}, {0.0, 1.0, 1.0, 0.0}});
  Matrix data(1, 2);
  data(0, 0) = 0.5;
  data(0, 1) = 5.0;
  ThreadPool pool(2);
  const Vector scores = ProjectRowsBatch(arch, data, {}, &pool);
  const ProjectionResult single = ProjectOntoCurve(arch, data.Row(0), {});
  EXPECT_EQ(scores[0], single.s);
  EXPECT_GT(scores[0], 0.5);
}

}  // namespace
}  // namespace rpc::opt
