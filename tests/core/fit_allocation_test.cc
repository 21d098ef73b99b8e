// Asserts the fit pipeline's steady-state contract: once the persistent
// workspaces are bound and the first (allocating) iteration has settled
// every buffer, a full outer iteration — projection with the fused
// normal-equation accumulation, control-point update, constraint clamping
// and the in-place curve rebind — performs zero heap allocations, for both
// the Richardson (Eq. 27) and pseudo-inverse (Eq. 26) update rules, under
// both reprojection modes' resync cadences. Same instrumented operator-new
// pattern as tests/opt/projection_allocation_test.cc.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fit_workspace.h"
#include "curve/bezier.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/incremental_projector.h"

namespace {

std::atomic<std::int64_t> g_allocations{0};

}  // namespace

// Program-wide replacements: every new/new[] in the binary (library code
// included) funnels through here.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rpc::core {
namespace {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

Matrix UnitData(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) data(i, j) = rng.Uniform(0.0, 1.0);
  }
  return data;
}

Matrix MonotoneCubicControl(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  return control;
}

// One steady-state outer iteration, mirroring RpcLearner::FitOnce's loop
// body: Step 4 through the projector (streaming every row into the
// workspace's fused segment accumulators), Step 5 through the workspace,
// Proposition 1 clamping, in-place curve rebind.
void OuterIteration(opt::IncrementalProjector* projector,
                    FitWorkspace* workspace,
                    const ControlUpdateOptions& options, Vector* scores,
                    Matrix* control, BezierCurve* bezier, double* j) {
  projector->ProjectInto(*bezier, scores, j);
  workspace->ReduceFusedSegments();
  const Status status = workspace->UpdateControlPoints(options, control);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const int d = control->rows();
  const int k = control->cols() - 1;
  for (int row = 0; row < d; ++row) {
    for (int r = 1; r < k; ++r) {
      (*control)(row, r) = std::clamp((*control)(row, r), 1e-3, 1.0 - 1e-3);
    }
    (*control)(row, 0) = 0.0;
    (*control)(row, k) = 1.0;
  }
  bezier->SetControlPoints(*control);
}

TEST(FitAllocationTest, SteadyStateOuterIterationIsAllocationFree) {
  const int n = 256;
  const int d = 4;
  const Matrix data = UnitData(n, d, 7);

  // Period 3 puts a full-projection resync inside the measured window, so
  // both the warm and the full Step 4 paths are covered; period 1 is the
  // kFull engine, a full pass on every call.
  for (const int resync_period : {3, 1}) {
    for (const bool use_pinv : {false, true}) {
      Matrix control = MonotoneCubicControl(d, 8);
      BezierCurve bezier(control);

      opt::IncrementalProjectorOptions projector_options;
      projector_options.resync_period = resync_period;
      opt::IncrementalProjector projector;
      projector.Bind(data, projector_options, /*pool=*/nullptr);

      FitWorkspace workspace;
      workspace.Bind(n, d, /*degree=*/3);
      projector.SetFusedAccumulators(workspace.fused_segments(),
                                     kFitSegmentRows);

      ControlUpdateOptions update_options;
      update_options.use_pseudo_inverse_update = use_pinv;

      Vector scores;
      double j = 0.0;
      // Two settling iterations: the first call allocates the score buffer
      // and the projector's per-curve state; afterwards every buffer is
      // capacity-stable.
      OuterIteration(&projector, &workspace, update_options, &scores,
                     &control, &bezier, &j);
      OuterIteration(&projector, &workspace, update_options, &scores,
                     &control, &bezier, &j);

      const std::int64_t before =
          g_allocations.load(std::memory_order_relaxed);
      for (int iter = 0; iter < 6; ++iter) {
        OuterIteration(&projector, &workspace, update_options, &scores,
                       &control, &bezier, &j);
      }
      const std::int64_t after =
          g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0)
          << (use_pinv ? "pseudo-inverse" : "Richardson")
          << " update, resync period " << resync_period
          << ", allocated in steady state (J " << j << ")";
      EXPECT_GT(j, 0.0);
    }
  }
}

// The update stage alone — the acceptance criterion's hard guarantee —
// checked for a non-cubic degree too (general-degree Horner path).
TEST(FitAllocationTest, UpdateStageIsAllocationFreeForGeneralDegree) {
  const int n = 500;
  const int d = 3;
  const int degree = 5;
  const Matrix data = UnitData(n, d, 17);
  Rng rng(18);
  Vector scores(n);
  for (int i = 0; i < n; ++i) scores[i] = rng.Uniform(0.0, 1.0);

  FitWorkspace workspace;
  workspace.Bind(n, d, degree);
  Matrix control(d, degree + 1);
  for (int i = 0; i < d; ++i) {
    for (int r = 0; r <= degree; ++r) {
      control(i, r) = static_cast<double>(r) / degree;
    }
  }
  ControlUpdateOptions options;
  workspace.AccumulateNormalEquations(data, scores, nullptr);
  ASSERT_TRUE(workspace.UpdateControlPoints(options, &control).ok());

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int iter = 0; iter < 5; ++iter) {
    workspace.AccumulateNormalEquations(data, scores, nullptr);
    const Status status = workspace.UpdateControlPoints(options, &control);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "update stage allocated in steady state";
}

}  // namespace
}  // namespace rpc::core
