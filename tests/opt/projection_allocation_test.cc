// Asserts the projection hot path's core contract: after Bind(), projecting
// a point performs zero heap allocations — for every method, including
// kQuinticRoots, whose Sturm root isolation runs inside the fixed-capacity
// PolynomialRootWorkspace since this PR. The whole test binary's operator
// new/delete are instrumented with a counter; the per-point loops below
// assert the counter does not move.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "curve/simd_backend.h"
#include "opt/curve_projection.h"
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

namespace rpc::opt {
namespace {

using curve::BezierCurve;
using linalg::Matrix;

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

TEST(ProjectionAllocationTest, ProjectIsAllocationFreeForEveryMethod) {
  const BezierCurve curve = MonotoneCubic(4, 3);
  const Matrix data = RandomData(256, 4, 4);
  for (ProjectionMethod method :
       {ProjectionMethod::kGoldenSection, ProjectionMethod::kQuinticRoots,
        ProjectionMethod::kGridOnly, ProjectionMethod::kNewton}) {
    ProjectionOptions options;
    options.method = method;
    ProjectionWorkspace workspace;
    workspace.Bind(curve, options);
    // Touch every row once so any lazily-initialised state settles.
    for (int i = 0; i < data.rows(); ++i) {
      (void)workspace.Project(data.RowPtr(i));
    }
    const std::int64_t before =
        g_allocations.load(std::memory_order_relaxed);
    double checksum = 0.0;
    for (int i = 0; i < data.rows(); ++i) {
      checksum += workspace.Project(data.RowPtr(i)).s;
    }
    const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "method " << static_cast<int>(method) << " allocated on the "
        << "per-point path (checksum " << checksum << ")";
  }
}

// The warm-start local refinement is part of the same per-point hot loop.
TEST(ProjectionAllocationTest, ProjectLocalIsAllocationFree) {
  const BezierCurve curve = MonotoneCubic(3, 13);
  const Matrix data = RandomData(128, 3, 14);
  for (ProjectionMethod method :
       {ProjectionMethod::kGoldenSection, ProjectionMethod::kQuinticRoots,
        ProjectionMethod::kNewton}) {
    ProjectionOptions options;
    options.method = method;
    ProjectionWorkspace workspace;
    workspace.Bind(curve, options);
    // Seed per-row s from a full projection outside the measured region.
    std::vector<double> warm(static_cast<size_t>(data.rows()));
    for (int i = 0; i < data.rows(); ++i) {
      warm[static_cast<size_t>(i)] = workspace.Project(data.RowPtr(i)).s;
    }
    // The first ProjectLocal after a fresh workspace's first Bind sizes the
    // hodograph buffers; settle them, then rebind so the measured region
    // covers the lazy per-Bind re-derivation, which must reuse them.
    bool settle_edge = false;
    workspace.ProjectLocal(data.RowPtr(0), 0.25, 0.75, &settle_edge);
    workspace.Bind(curve, options);
    const std::int64_t before =
        g_allocations.load(std::memory_order_relaxed);
    double checksum = 0.0;
    for (int i = 0; i < data.rows(); ++i) {
      const double s = warm[static_cast<size_t>(i)];
      bool hit_edge = false;
      checksum += workspace
                      .ProjectLocal(data.RowPtr(i),
                                    std::max(0.0, s - 1.0 / 32.0),
                                    std::min(1.0, s + 1.0 / 32.0), &hit_edge)
                      .s;
    }
    const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0)
        << "method " << static_cast<int>(method) << " (checksum " << checksum
        << ")";
  }
}

// The block path's lock-step Golden Section refinement collects brackets
// into fixed-size wave scratch and runs each wave through one kernel call:
// once a first block has settled the workspace, ProjectBlock allocates
// nothing, on every backend, for full blocks and for the small 8-row
// blocks live reads issue.
TEST(ProjectionAllocationTest, GoldenSectionProjectBlockIsAllocationFree) {
  const BezierCurve curve = MonotoneCubic(6, 23);
  const Matrix data = RandomData(256, 6, 24);
  const curve::SimdBackendKind previous = curve::ActiveSimdKind();
  std::vector<double> s(static_cast<size_t>(data.rows()));
  std::vector<double> squared(static_cast<size_t>(data.rows()));
  for (const curve::SimdOps* ops : curve::AvailableSimdBackends()) {
    ASSERT_TRUE(curve::SetSimdBackend(ops->kind));
    for (int count : {data.rows(), 8}) {
      ProjectionWorkspace workspace;
      workspace.Bind(curve, ProjectionOptions{});
      workspace.ProjectBlock(data.RowPtr(0), count, data.cols(), s.data(),
                             squared.data());
      const std::int64_t before =
          g_allocations.load(std::memory_order_relaxed);
      workspace.ProjectBlock(data.RowPtr(0), count, data.cols(), s.data(),
                             squared.data());
      const std::int64_t after =
          g_allocations.load(std::memory_order_relaxed);
      EXPECT_EQ(after - before, 0)
          << ops->name << " count " << count << " (s[0] " << s[0] << ")";
    }
  }
  ASSERT_TRUE(curve::SetSimdBackend(previous));
}

}  // namespace
}  // namespace rpc::opt
