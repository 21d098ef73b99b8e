#include "curve/simd_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "curve/bezier.h"
#include "curve/simd_backend_ref.h"
#include "linalg/matrix.h"
#include "opt/batch_projection.h"
#include "opt/curve_projection.h"
#include "opt/golden_section.h"
#include "opt/row_block.h"

namespace rpc::curve {
namespace {

using linalg::Matrix;
using linalg::Vector;
using opt::ProjectionMethod;
using opt::ProjectionOptions;
using opt::ProjectionWorkspace;
using opt::RowBlock;

TEST(SimdBackendTest, ScalarAlwaysAvailableAndFirst) {
  const std::vector<const SimdOps*> backends = AvailableSimdBackends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends[0]->kind, SimdBackendKind::kScalar);
  EXPECT_STREQ(backends[0]->name, "scalar");
  EXPECT_EQ(backends[0]->golden_lanes, 1);
  for (const SimdOps* ops : backends) {
    ASSERT_NE(ops, nullptr);
    EXPECT_NE(ops->tile_squared_distances_fused, nullptr);
    EXPECT_NE(ops->tile_squared_distances_seq, nullptr);
    EXPECT_NE(ops->power_squared_distance, nullptr);
    EXPECT_NE(ops->golden_refine_multi, nullptr);
    EXPECT_GE(ops->golden_lanes, 1);
    EXPECT_STREQ(ops->name, SimdBackendName(ops->kind));
  }
}

TEST(SimdBackendTest, ActiveBackendIsAvailableAndNamed) {
  const SimdOps& active = ActiveSimd();
  EXPECT_STREQ(BackendName(), active.name);
  EXPECT_EQ(ActiveSimdKind(), active.kind);
  bool listed = false;
  for (const SimdOps* ops : AvailableSimdBackends()) {
    if (ops->kind == active.kind) listed = true;
  }
  EXPECT_TRUE(listed);
}

TEST(SimdBackendTest, SetSimdBackendRejectsUnavailableAcceptsScalar) {
  const SimdBackendKind previous = ActiveSimdKind();
  EXPECT_TRUE(SetSimdBackend(SimdBackendKind::kScalar));
  EXPECT_EQ(ActiveSimdKind(), SimdBackendKind::kScalar);
#if !defined(__aarch64__)
  EXPECT_FALSE(SetSimdBackend(SimdBackendKind::kNeon));
  EXPECT_EQ(ActiveSimdKind(), SimdBackendKind::kScalar);
#endif
  EXPECT_TRUE(SetSimdBackend(previous));
  EXPECT_EQ(ActiveSimdKind(), previous);
}

// The core contract: on random SoA tiles of random shapes, every compiled
// backend's kernels produce bit-identical distances to the scalar
// reference — for both reference orderings, including ragged row counts
// that exercise the vector kernels' scalar remainders and dimension tails.
TEST(SimdBackendTest, KernelsBitIdenticalToScalarOnRandomTiles) {
  Rng rng(2024);
  const std::vector<const SimdOps*> backends = AvailableSimdBackends();
  const SimdOps* scalar = backends[0];
  for (int trial = 0; trial < 200; ++trial) {
    const int d = 1 + static_cast<int>(rng.UniformInt(40));
    const int rows = 1 + static_cast<int>(rng.UniformInt(RowBlock::kMaxRows));
    std::vector<double> tile(static_cast<size_t>(d) * RowBlock::kLaneStride);
    for (double& v : tile) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> f(static_cast<size_t>(d));
    for (double& v : f) v = rng.Uniform(-2.0, 2.0);

    std::vector<double> expected_fused(static_cast<size_t>(rows));
    std::vector<double> expected_seq(static_cast<size_t>(rows));
    scalar->tile_squared_distances_fused(tile.data(), RowBlock::kLaneStride,
                                         d, rows, f.data(),
                                         expected_fused.data());
    scalar->tile_squared_distances_seq(tile.data(), RowBlock::kLaneStride, d,
                                       rows, f.data(), expected_seq.data());
    for (const SimdOps* ops : backends) {
      std::vector<double> got(static_cast<size_t>(rows), -1.0);
      ops->tile_squared_distances_fused(tile.data(), RowBlock::kLaneStride, d,
                                        rows, f.data(), got.data());
      for (int r = 0; r < rows; ++r) {
        ASSERT_EQ(got[static_cast<size_t>(r)],
                  expected_fused[static_cast<size_t>(r)])
            << ops->name << " fused d=" << d << " rows=" << rows
            << " row " << r;
      }
      ops->tile_squared_distances_seq(tile.data(), RowBlock::kLaneStride, d,
                                      rows, f.data(), got.data());
      for (int r = 0; r < rows; ++r) {
        ASSERT_EQ(got[static_cast<size_t>(r)],
                  expected_seq[static_cast<size_t>(r)])
            << ops->name << " seq d=" << d << " rows=" << rows
            << " row " << r;
      }
    }
  }
}

// Same contract for the per-point refinement kernel: random degrees,
// dimensions (ragged tails included) and interior s — every backend must
// match the scalar reference bit for bit.
TEST(SimdBackendTest, PowerKernelBitIdenticalToScalarOnRandomCoefficients) {
  Rng rng(909);
  const std::vector<const SimdOps*> backends = AvailableSimdBackends();
  const SimdOps* scalar = backends[0];
  for (int trial = 0; trial < 300; ++trial) {
    const int d = 1 + static_cast<int>(rng.UniformInt(40));
    const int k = 1 + static_cast<int>(rng.UniformInt(7));
    std::vector<double> power(static_cast<size_t>(k + 1) *
                              static_cast<size_t>(d));
    for (double& v : power) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> x(static_cast<size_t>(d));
    for (double& v : x) v = rng.Uniform(-2.0, 2.0);
    const double s = rng.Uniform(1e-6, 1.0 - 1e-6);
    const double expected =
        scalar->power_squared_distance(power.data(), k, d, s, x.data());
    for (const SimdOps* ops : backends) {
      const double got =
          ops->power_squared_distance(power.data(), k, d, s, x.data());
      ASSERT_EQ(got, expected)
          << ops->name << " k=" << k << " d=" << d << " s=" << s;
    }
  }
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// The strided per-point reference, read down a task-major tile column, is
// the objective of the reference Golden Section kernel (the scalar
// backend's and every backend's remainder lanes). Lane by lane it must
// equal every backend's per-point kernel: random shapes, ragged task
// counts and dimension tails. Each backend's vector lanes are checked
// bitwise by GoldenRefineKernelBitIdenticalToReference.
TEST(SimdBackendTest, StridedReferenceBitIdenticalToPerPointKernels) {
  Rng rng(4242);
  const std::vector<const SimdOps*> backends = AvailableSimdBackends();
  constexpr int kLaneStride = RowBlock::kMaxRows;
  for (int trial = 0; trial < 200; ++trial) {
    const int d = 1 + static_cast<int>(rng.UniformInt(40));
    const int k = 1 + static_cast<int>(rng.UniformInt(7));
    const int count = 1 + static_cast<int>(rng.UniformInt(kLaneStride));
    std::vector<double> power(static_cast<size_t>(k + 1) *
                              static_cast<size_t>(d));
    for (double& v : power) v = rng.Uniform(-2.0, 2.0);
    std::vector<double> xt(static_cast<size_t>(d) * kLaneStride);
    for (double& v : xt) v = rng.Uniform(-2.0, 2.0);

    std::vector<double> x(static_cast<size_t>(d));
    for (int t = 0; t < count; ++t) {
      const double s = rng.Uniform(1e-6, 1.0 - 1e-6);
      const double got = internal::RefPowerSquaredDistanceStrided(
          power.data(), k, d, s, xt.data() + t, kLaneStride);
      for (int j = 0; j < d; ++j) {
        x[static_cast<size_t>(j)] =
            xt[static_cast<size_t>(j) * kLaneStride + t];
      }
      for (const SimdOps* ops : backends) {
        ASSERT_EQ(Bits(got), Bits(ops->power_squared_distance(
                                 power.data(), k, d, s, x.data())))
            << ops->name << " k=" << k << " d=" << d << " count=" << count
            << " task " << t;
      }
    }
  }
}

// One golden_refine_multi call's inputs and outputs.
struct GoldenCall {
  std::vector<double> s;
  std::vector<double> dist;
  std::vector<int> evaluations;
  std::vector<unsigned char> endpoint;

  GoldenCall(const SimdOps& ops, const std::vector<double>& power, int k,
             int d, const std::vector<double>& xt, int lane_stride,
             const std::vector<double>& lo, const std::vector<double>& hi,
             double tol, int max_iterations)
      : s(lo.size(), -1.0),
        dist(lo.size(), -1.0),
        evaluations(lo.size(), -1),
        endpoint(lo.size(), 7) {
    ops.golden_refine_multi(power.data(), k, d, xt.data(), lane_stride,
                            static_cast<int>(lo.size()), lo.data(), hi.data(),
                            tol, max_iterations, s.data(), dist.data(),
                            evaluations.data(), endpoint.data());
  }
};

// The whole-search Golden Section kernel. Every backend must reproduce the
// scalar reference bit for bit — minimiser, squared distance, evaluation
// count and endpoint flag — and the reference must be
// opt::GoldenSectionMinimizeWith over the interior objective, lane by lane.
// The sweep covers degrees 1..10, awkward dimensions (tails of every
// length, the d >= 16 per-point kernel range), every task count 1..64
// (ragged vector remainders included), ordinary grid brackets, the two
// boundary brackets, already-narrow brackets (h <= tol), the
// [nextafter(1, 0), 1] bracket whose d probe rounds to exactly 1.0 at
// tol = 1e-17 (endpoint flag), and a 3-iteration cap.
TEST(SimdBackendTest, GoldenRefineKernelBitIdenticalToReference) {
  Rng rng(1414);
  const std::vector<const SimdOps*> backends = AvailableSimdBackends();
  const SimdOps* scalar = backends[0];
  constexpr int kLaneStride = RowBlock::kMaxRows;
  const double kTols[] = {1e-10, 1e-4, 1e-17};
  int pair = 0;
  int endpoint_lanes = 0;
  int narrow_lanes = 0;
  int capped_lanes = 0;
  for (int k = 1; k <= 10; ++k) {
    for (int d : {1, 2, 3, 4, 5, 7, 8, 9, 16, 33}) {
      ++pair;
      std::vector<double> power(static_cast<size_t>(k + 1) *
                                static_cast<size_t>(d));
      for (double& v : power) v = rng.Uniform(-2.0, 2.0);
      std::vector<double> xt(static_cast<size_t>(d) * kLaneStride);
      for (double& v : xt) v = rng.Uniform(-0.5, 1.5);
      // Two counts per (k, d) pair, together covering 1..64.
      for (int count : {1 + pair % 64, 64 - pair % 64}) {
        const double tol = kTols[(pair + count) % 3];
        const int max_iterations = (pair + count) % 4 == 0 ? 3 : 200;
        const int g = 8 + static_cast<int>(rng.UniformInt(25));
        std::vector<double> lo(static_cast<size_t>(count));
        std::vector<double> hi(static_cast<size_t>(count));
        for (int t = 0; t < count; ++t) {
          double a = 0.0;
          double b = 1.0;
          switch (rng.UniformInt(6)) {
            case 0:
            case 1: {
              const int i = static_cast<int>(rng.UniformInt(g + 1));
              a = std::max(0.0, static_cast<double>(i - 1) / g);
              b = std::min(1.0, static_cast<double>(i + 1) / g);
              break;
            }
            case 2:
              a = rng.Uniform(0.0, 1.0);
              b = a + 0.5 * tol * rng.Uniform(0.0, 1.0);
              break;
            case 3:
              a = 0.0;
              b = 1.0 / g;
              break;
            case 4:
              a = 1.0 - 1.0 / g;
              b = 1.0;
              break;
            default:
              a = std::nextafter(1.0, 0.0);
              b = 1.0;
              break;
          }
          lo[static_cast<size_t>(t)] = a;
          hi[static_cast<size_t>(t)] = b;
        }

        const GoldenCall expected(*scalar, power, k, d, xt, kLaneStride, lo,
                                  hi, tol, max_iterations);
        // The reference is Golden Section Search itself, per lane.
        for (int t = 0; t < count; ++t) {
          const size_t ut = static_cast<size_t>(t);
          bool hit = false;
          const auto objective = [&](double s) {
            hit = hit || s == 0.0 || s == 1.0;
            return internal::RefPowerSquaredDistanceStrided(
                power.data(), k, d, s, xt.data() + t, kLaneStride);
          };
          const opt::ScalarMinResult gss = opt::GoldenSectionMinimizeWith(
              objective, lo[ut], hi[ut], tol, max_iterations);
          ASSERT_EQ(Bits(expected.s[ut]), Bits(gss.x))
              << "k=" << k << " d=" << d << " task " << t;
          ASSERT_EQ(Bits(expected.dist[ut]), Bits(gss.fx))
              << "k=" << k << " d=" << d << " task " << t;
          ASSERT_EQ(expected.evaluations[ut], gss.evaluations);
          ASSERT_EQ(expected.endpoint[ut], hit ? 1 : 0);
          if (hit) ++endpoint_lanes;
          if (hi[ut] - lo[ut] <= tol) ++narrow_lanes;
          if (max_iterations == 3 && gss.evaluations == 5) ++capped_lanes;
        }
        for (const SimdOps* ops : backends) {
          const GoldenCall got(*ops, power, k, d, xt, kLaneStride, lo, hi,
                               tol, max_iterations);
          for (int t = 0; t < count; ++t) {
            const size_t ut = static_cast<size_t>(t);
            ASSERT_EQ(Bits(got.s[ut]), Bits(expected.s[ut]))
                << ops->name << " k=" << k << " d=" << d
                << " count=" << count << " task " << t << " tol=" << tol;
            ASSERT_EQ(Bits(got.dist[ut]), Bits(expected.dist[ut]))
                << ops->name << " k=" << k << " d=" << d
                << " count=" << count << " task " << t;
            ASSERT_EQ(got.evaluations[ut], expected.evaluations[ut])
                << ops->name << " k=" << k << " d=" << d
                << " count=" << count << " task " << t;
            ASSERT_EQ(got.endpoint[ut], expected.endpoint[ut])
                << ops->name << " k=" << k << " d=" << d
                << " count=" << count << " task " << t;
          }
        }
      }
    }
  }
  // The sweep must actually have reached the special branches.
  EXPECT_GT(endpoint_lanes, 0);
  EXPECT_GT(narrow_lanes, 0);
  EXPECT_GT(capped_lanes, 0);
}

// The endpoint flag in isolation: at tol = 1e-17 the bracket
// [nextafter(1, 0), 1] is one ulp wide, so its d probe a + h / phi rounds
// to exactly 1.0 — every lane must be flagged, whether it runs in a full
// vector or in the scalar remainder.
TEST(SimdBackendTest, GoldenRefineKernelFlagsEndpointProbes) {
  Rng rng(99);
  constexpr int kLaneStride = RowBlock::kMaxRows;
  const int k = 3;
  const int d = 5;
  std::vector<double> power(static_cast<size_t>(k + 1) * d);
  for (double& v : power) v = rng.Uniform(-1.0, 1.0);
  std::vector<double> xt(static_cast<size_t>(d) * kLaneStride);
  for (double& v : xt) v = rng.Uniform(0.0, 1.0);
  const int count = 11;
  const std::vector<double> lo(count, std::nextafter(1.0, 0.0));
  const std::vector<double> hi(count, 1.0);
  for (const SimdOps* ops : AvailableSimdBackends()) {
    const GoldenCall got(*ops, power, k, d, xt, kLaneStride, lo, hi, 1e-17,
                         200);
    for (int t = 0; t < count; ++t) {
      EXPECT_EQ(got.endpoint[static_cast<size_t>(t)], 1)
          << ops->name << " task " << t;
    }
  }
}

BezierCurve RandomCurve(int d, int k, Rng* rng) {
  Matrix control(d, k + 1);
  for (int i = 0; i < d; ++i) {
    for (int r = 0; r <= k; ++r) control(i, r) = rng->Uniform(-0.2, 1.2);
  }
  return BezierCurve(control);
}

// A U-shaped cubic (d >= 2): out from near the origin along the first
// axis and back 0.3 higher along the second, near 0.5 in every further
// dimension. Points between the arms have two grid-local minima, one per
// arm; points beyond the open end project onto s = 0 or s = 1. The
// control points are jittered so that the power-basis value at s = 1
// differs from the exact end control point the per-point endpoint branch
// uses — otherwise an endpoint probe scored with the interior formula
// would go unnoticed.
BezierCurve UCurve(int d, Rng* rng) {
  Matrix control(d, 4);
  const double first[] = {0.0, 1.5, 1.5, 0.0};
  const double second[] = {0.0, 0.0, 0.3, 0.3};
  for (int r = 0; r < 4; ++r) {
    control(0, r) = first[r] + rng->Uniform(-0.01, 0.01);
    control(1, r) = second[r] + rng->Uniform(-0.01, 0.01);
    for (int j = 2; j < d; ++j) control(j, r) = rng->Uniform(0.4, 0.6);
  }
  return BezierCurve(control);
}

// Rows for UCurve that reach every branch of the lock-step refinement:
// between the arms (two brackets per row), beyond the start (s = 0) and
// beyond the end (s = 1), plus scattered rows.
Matrix HardRows(int n, int d, Rng* rng) {
  Matrix data(n, d);
  for (int i = 0; i < n; ++i) {
    double x0 = 0.0;
    double x1 = 0.0;
    switch (i % 4) {
      case 0:
        x0 = rng->Uniform(0.1, 0.6);
        x1 = rng->Uniform(0.13, 0.17);
        break;
      case 1:
        x0 = rng->Uniform(-0.6, -0.2);
        x1 = rng->Uniform(-0.3, -0.05);
        break;
      case 2:
        x0 = rng->Uniform(-0.6, -0.2);
        x1 = rng->Uniform(0.35, 0.6);
        break;
      default:
        x0 = rng->Uniform(-0.3, 1.7);
        x1 = rng->Uniform(-0.2, 0.5);
        break;
    }
    data(i, 0) = x0;
    data(i, 1) = x1;
    for (int j = 2; j < d; ++j) data(i, j) = 0.5 + rng->Uniform(-0.05, 0.05);
  }
  return data;
}

// Grid-local minima of ||x - f(s)||^2 on the g-cell grid — the brackets
// FinishGridFromDists refines.
int GridLocalMinima(const BezierCurve& curve, const double* x, int g) {
  std::vector<double> dist(static_cast<size_t>(g) + 1);
  const Vector point(std::vector<double>(x, x + curve.dimension()));
  for (int i = 0; i <= g; ++i) {
    dist[static_cast<size_t>(i)] =
        curve.SquaredDistanceAt(point, static_cast<double>(i) / g);
  }
  int minima = 0;
  for (int i = 0; i <= g; ++i) {
    const size_t ui = static_cast<size_t>(i);
    if ((i == 0 || dist[ui] <= dist[ui - 1]) &&
        (i == g || dist[ui] <= dist[ui + 1])) {
      ++minima;
    }
  }
  return minima;
}

// HardRows must actually contain the rows it promises.
void ExpectHardRowsCoverBranches(const BezierCurve& curve, const Matrix& data,
                                 const ProjectionOptions& options) {
  ProjectionWorkspace workspace;
  workspace.Bind(curve, options);
  int two_minima = 0;
  int at_start = 0;
  int at_end = 0;
  for (int i = 0; i < data.rows(); ++i) {
    if (GridLocalMinima(curve, data.RowPtr(i), options.grid_points) >= 2) {
      ++two_minima;
    }
    const double s = workspace.Project(data.RowPtr(i)).s;
    if (s <= 1e-6) ++at_start;
    if (s == 1.0) ++at_end;
  }
  EXPECT_GT(two_minima, 0);
  EXPECT_GT(at_start, 0);
  EXPECT_GT(at_end, 0);
}

// Per-row ground truth: Project on every row, plus the workspace counters.
struct PerRowReference {
  std::vector<double> s;
  std::vector<double> squared;
  double total = 0.0;
  std::int64_t objective_evaluations = 0;
  std::int64_t stationarity_evaluations = 0;

  PerRowReference(const BezierCurve& curve, const Matrix& data,
                  const ProjectionOptions& options) {
    ProjectionWorkspace workspace;
    workspace.Bind(curve, options);
    for (int i = 0; i < data.rows(); ++i) {
      const auto proj = workspace.Project(data.RowPtr(i));
      s.push_back(proj.s);
      squared.push_back(proj.squared_distance);
      total += proj.squared_distance;
    }
    objective_evaluations = workspace.objective_evaluations();
    stationarity_evaluations = workspace.stationarity_evaluations();
  }
};

// ProjectBlock on the active backend against the per-row reference: s,
// squared distance and both evaluation counters. The rows go through one
// workspace in consecutive ProjectBlock calls of `chunk` rows (0: one call
// for all rows).
void ExpectBlockMatchesPerRow(const BezierCurve& curve, const Matrix& data,
                              const ProjectionOptions& options,
                              const PerRowReference& reference,
                              const char* label, int chunk = 0) {
  ProjectionWorkspace block;
  block.Bind(curve, options);
  const int n = data.rows();
  if (chunk == 0) chunk = n;
  std::vector<double> s(static_cast<size_t>(n));
  std::vector<double> squared(static_cast<size_t>(n));
  for (int begin = 0; begin < n; begin += chunk) {
    block.ProjectBlock(data.RowPtr(begin), std::min(chunk, n - begin),
                       data.cols(), s.data() + begin, squared.data() + begin);
  }
  for (int i = 0; i < n; ++i) {
    const size_t ui = static_cast<size_t>(i);
    ASSERT_EQ(Bits(s[ui]), Bits(reference.s[ui]))
        << label << " " << BackendName() << " method "
        << static_cast<int>(options.method) << " chunk " << chunk << " row "
        << i;
    ASSERT_EQ(Bits(squared[ui]), Bits(reference.squared[ui]))
        << label << " " << BackendName() << " method "
        << static_cast<int>(options.method) << " chunk " << chunk << " row "
        << i;
  }
  EXPECT_EQ(block.objective_evaluations(), reference.objective_evaluations)
      << label << " " << BackendName() << " method "
      << static_cast<int>(options.method) << " chunk " << chunk;
  EXPECT_EQ(block.stationarity_evaluations(),
            reference.stationarity_evaluations)
      << label << " " << BackendName() << " method "
      << static_cast<int>(options.method) << " chunk " << chunk;
}

// End-to-end equivalence fuzz: random degrees (the general-degree Horner
// path included), dimensions and row counts, plus U-curve trials whose
// rows have two grid-local minima or project onto s = 0 / s = 1. Under
// every compiled backend forced in turn, the batch scores and total J, and
// the block path's per-row s, squared distances and evaluation counters,
// must equal per-row Project bit for bit, for every grid-based method.
// Random trials span 1..150 rows. U-curve trials 10..13 have at least 16
// rows; trials 14..19 have 2..15, the small blocks live reads issue, so
// two-minimum and s = 0 / s = 1 rows reach the lock-step refinement at
// small counts on every backend.
TEST(SimdBackendTest, BatchProjectionBitIdenticalAcrossBackends) {
  const SimdBackendKind previous = ActiveSimdKind();
  Rng rng(77);
  const ProjectionMethod methods[] = {ProjectionMethod::kGoldenSection,
                                      ProjectionMethod::kGridOnly,
                                      ProjectionMethod::kNewton};
  constexpr int kSmallCounts[] = {2, 3, 5, 8, 12, 15};
  for (int trial = 0; trial < 20; ++trial) {
    const bool hard = trial >= 10;
    const bool small = trial >= 14;
    const int d = small  ? 2 + 3 * (trial - 14)
                  : hard ? 2 + 5 * (trial - 10)
                         : 1 + static_cast<int>(rng.UniformInt(12));
    const int k = hard ? 3 : 1 + static_cast<int>(rng.UniformInt(5));
    const int n = small ? kSmallCounts[trial - 14]
                        : (hard ? 16 : 1) +
                              static_cast<int>(rng.UniformInt(150));
    const BezierCurve curve = hard ? UCurve(d, &rng) : RandomCurve(d, k, &rng);
    Matrix data(n, d);
    if (hard) {
      data = HardRows(n, d, &rng);
    } else {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d; ++j) data(i, j) = rng.Uniform(-0.3, 1.3);
      }
    }
    for (ProjectionMethod method : methods) {
      ProjectionOptions options;
      options.method = method;
      options.grid_points = 8 + static_cast<int>(rng.UniformInt(24));
      // HardRows' first three rows already reach two minima, s = 0 and
      // s = 1.
      if (hard && n >= 3 && method == ProjectionMethod::kGoldenSection) {
        ExpectHardRowsCoverBranches(curve, data, options);
      }

      ASSERT_TRUE(SetSimdBackend(SimdBackendKind::kScalar));
      const PerRowReference reference(curve, data, options);
      for (const SimdOps* ops : AvailableSimdBackends()) {
        ASSERT_TRUE(SetSimdBackend(ops->kind));
        double total = 0.0;
        const Vector scores =
            opt::ProjectRowsBatch(curve, data, options, nullptr, &total);
        for (int i = 0; i < n; ++i) {
          ASSERT_EQ(scores[i], reference.s[static_cast<size_t>(i)])
              << ops->name << " k=" << k << " d=" << d << " row " << i;
        }
        ASSERT_EQ(total, reference.total)
            << ops->name << " k=" << k << " d=" << d;
        ExpectBlockMatchesPerRow(curve, data, options, reference,
                                 hard ? "u-curve" : "random");
      }
    }
  }
  ASSERT_TRUE(SetSimdBackend(previous));
}

// The block path must preserve the evaluation-accounting invariant the
// per-row path holds — workspace counters count exactly the evaluations
// the solver performed — on every backend, including the lock-step
// refinement's two-bracket rows and boundary projections, whose kernel
// evaluation counts replace the per-row search's. At tol = 1e-17 the
// searches of rows projecting onto s = 1 shrink their bracket until a
// probe rounds to exactly 1.0, so the kernel flags them and the workspace
// redoes them per point: that path must count each evaluation once. The
// same holds when the rows arrive in small blocks (1..15 rows) or in
// blocks straddling a vector width.
TEST(SimdBackendTest, BlockPathEvaluationAccountingMatchesPerRow) {
  const SimdBackendKind previous = ActiveSimdKind();
  Rng rng(31);
  const BezierCurve curve = UCurve(6, &rng);
  const Matrix data = HardRows(100, 6, &rng);
  ExpectHardRowsCoverBranches(curve, data, ProjectionOptions{});
  for (const SimdOps* ops : AvailableSimdBackends()) {
    ASSERT_TRUE(SetSimdBackend(ops->kind));
    for (ProjectionMethod method : {ProjectionMethod::kGoldenSection,
                                    ProjectionMethod::kGridOnly,
                                    ProjectionMethod::kNewton}) {
      for (double tol : {1e-10, 1e-17}) {
        ProjectionOptions options;
        options.method = method;
        options.tol = tol;
        const PerRowReference reference(curve, data, options);
        for (int chunk : {0, 1, 2, 3, 7, 8, 15}) {
          ExpectBlockMatchesPerRow(curve, data, options, reference,
                                   "accounting", chunk);
        }
      }
    }
  }
  ASSERT_TRUE(SetSimdBackend(previous));
}

}  // namespace
}  // namespace rpc::curve
