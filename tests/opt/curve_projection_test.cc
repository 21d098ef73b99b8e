#include "opt/curve_projection.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace rpc::opt {
namespace {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

// Straight diagonal line in 2-D as a degree-3 curve.
BezierCurve DiagonalCubic() {
  return BezierCurve(Matrix{{0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0},
                            {0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}});
}

// The S-shaped monotone cubic used in several tests.
BezierCurve SShapeCubic() {
  return BezierCurve(Matrix{{0.0, 0.45, 0.55, 1.0}, {0.0, 0.05, 0.95, 1.0}});
}

TEST(ProjectionTest, PointOnLineProjectsToItself) {
  const BezierCurve line = DiagonalCubic();
  // On a straight unit-speed-in-s diagonal the parameter equals position.
  const ProjectionResult r =
      ProjectOntoCurve(line, Vector{0.25, 0.25});
  EXPECT_NEAR(r.s, 0.25, 1e-7);
  EXPECT_NEAR(r.squared_distance, 0.0, 1e-12);
}

TEST(ProjectionTest, OrthogonalPointProjectsToFoot) {
  const BezierCurve line = DiagonalCubic();
  // (0.5, 0) projects to (0.25, 0.25), i.e. s = 0.25.
  const ProjectionResult r = ProjectOntoCurve(line, Vector{0.5, 0.0});
  EXPECT_NEAR(r.s, 0.25, 1e-6);
  EXPECT_NEAR(r.squared_distance, 0.125, 1e-9);
}

TEST(ProjectionTest, BeyondEndsClampsToEndpoints) {
  const BezierCurve line = DiagonalCubic();
  EXPECT_NEAR(ProjectOntoCurve(line, Vector{-1.0, -1.0}).s, 0.0, 1e-9);
  EXPECT_NEAR(ProjectOntoCurve(line, Vector{2.0, 2.0}).s, 1.0, 1e-9);
}

TEST(ProjectionTest, MethodsAgreeOnSmoothCurve) {
  const BezierCurve curve = SShapeCubic();
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    const Vector x{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    ProjectionOptions gss;
    gss.method = ProjectionMethod::kGoldenSection;
    ProjectionOptions quintic;
    quintic.method = ProjectionMethod::kQuinticRoots;
    const ProjectionResult a = ProjectOntoCurve(curve, x, gss);
    const ProjectionResult b = ProjectOntoCurve(curve, x, quintic);
    // The two solvers must find equally good minima.
    EXPECT_NEAR(a.squared_distance, b.squared_distance, 1e-7)
        << "x=" << x.ToString();
    EXPECT_NEAR(a.s, b.s, 1e-4) << "x=" << x.ToString();
  }
}

TEST(ProjectionTest, NewtonAgreesWithExactSolver) {
  const BezierCurve curve = SShapeCubic();
  Rng rng(56);
  ProjectionOptions newton;
  newton.method = ProjectionMethod::kNewton;
  ProjectionOptions quintic;
  quintic.method = ProjectionMethod::kQuinticRoots;
  for (int trial = 0; trial < 100; ++trial) {
    const Vector x{rng.Uniform(-0.2, 1.2), rng.Uniform(-0.2, 1.2)};
    const ProjectionResult a = ProjectOntoCurve(curve, x, newton);
    const ProjectionResult b = ProjectOntoCurve(curve, x, quintic);
    EXPECT_NEAR(a.squared_distance, b.squared_distance, 1e-7)
        << "x=" << x.ToString();
  }
}

TEST(ProjectionTest, NewtonHandlesEndpointsAndOnCurvePoints) {
  const BezierCurve curve = SShapeCubic();
  ProjectionOptions newton;
  newton.method = ProjectionMethod::kNewton;
  EXPECT_NEAR(ProjectOntoCurve(curve, Vector{-0.5, -0.5}, newton).s, 0.0,
              1e-6);
  EXPECT_NEAR(ProjectOntoCurve(curve, Vector{1.5, 1.5}, newton).s, 1.0,
              1e-6);
  for (double s : {0.2, 0.5, 0.8}) {
    const ProjectionResult r =
        ProjectOntoCurve(curve, curve.Evaluate(s), newton);
    EXPECT_NEAR(r.s, s, 1e-5);
    EXPECT_NEAR(r.squared_distance, 0.0, 1e-10);
  }
}

TEST(ProjectionTest, GridOnlyIsCoarser) {
  const BezierCurve curve = SShapeCubic();
  ProjectionOptions grid;
  grid.method = ProjectionMethod::kGridOnly;
  grid.grid_points = 8;
  const Vector x{0.31, 0.4};
  const ProjectionResult coarse = ProjectOntoCurve(curve, x, grid);
  const ProjectionResult fine = ProjectOntoCurve(curve, x);
  EXPECT_GE(coarse.squared_distance, fine.squared_distance - 1e-12);
  // Grid answers are multiples of 1/8.
  EXPECT_NEAR(coarse.s * 8.0, std::round(coarse.s * 8.0), 1e-12);
}

TEST(ProjectionTest, SupTieBreakOnEquidistantPoint) {
  // For the symmetric S curve, the point (0.5, 0.5) sits at the centre;
  // perturbing to an exactly ambiguous configuration exercises the sup rule
  // on the diagonal line instead: any point equidistant to two branches.
  // Here: a straight horizontal segment y = 0 from (0,0) to (1,0) and the
  // query (0.5, 1): all of s have distance >= 1, the minimum at s = 0.5 is
  // unique, but for the *flat* curve below every s is equally distant and
  // the sup rule must return s = 1.
  const BezierCurve flat(
      Matrix{{0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0}, {0.0, 0.0, 0.0, 0.0}});
  // Project a point equidistant from the entire segment in y only: pick
  // x-coordinate outside so the distance strictly decreases toward s=1?
  // No: choose the query directly above the segment's interior is nearest
  // at its own x. Instead use a query far above so the y-term dominates and
  // x variation is negligible? The clean equidistant case is the segment
  // degenerate to a point:
  const BezierCurve degenerate(
      Matrix{{0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}});
  const ProjectionResult r =
      ProjectOntoCurve(degenerate, Vector{0.9, 0.1});
  EXPECT_NEAR(r.s, 1.0, 1e-9);  // sup of the (everything-ties) argmin set
}

TEST(ProjectionTest, QuinticSolvesStationarity) {
  const BezierCurve curve = SShapeCubic();
  ProjectionOptions quintic;
  quintic.method = ProjectionMethod::kQuinticRoots;
  const Vector x{0.4, 0.7};
  const ProjectionResult r = ProjectOntoCurve(curve, x, quintic);
  if (r.s > 1e-9 && r.s < 1.0 - 1e-9) {
    // Interior minimiser must satisfy f'(s) . (x - f(s)) = 0 (Eq. 20).
    const Vector deriv = curve.Derivative(r.s);
    const Vector residual = x - curve.Evaluate(r.s);
    EXPECT_NEAR(linalg::Dot(deriv, residual), 0.0, 1e-7);
  }
}

TEST(ProjectRowsTest, AccumulatesResidual) {
  const BezierCurve line = DiagonalCubic();
  Matrix data{{0.0, 0.0}, {0.5, 0.5}, {1.0, 0.0}};
  double total = 0.0;
  const Vector scores = ProjectRows(line, data, {}, &total);
  EXPECT_EQ(scores.size(), 3);
  EXPECT_NEAR(scores[0], 0.0, 1e-7);
  EXPECT_NEAR(scores[1], 0.5, 1e-6);
  // Third point: distance^2 to (0.5,0.5) = 0.5.
  EXPECT_NEAR(total, 0.5, 1e-6);
}

TEST(ProjectionTest, HigherDimensionalCurve) {
  // 4-D monotone cubic; projection of an on-curve point recovers s.
  Matrix control(4, 4);
  for (int j = 0; j < 4; ++j) {
    control(j, 0) = 0.0;
    control(j, 1) = 0.3 + 0.1 * j;
    control(j, 2) = 0.6 + 0.05 * j;
    control(j, 3) = 1.0;
  }
  const BezierCurve curve(control);
  for (double s : {0.1, 0.42, 0.77}) {
    const ProjectionResult r = ProjectOntoCurve(curve, curve.Evaluate(s));
    EXPECT_NEAR(r.s, s, 1e-6);
    EXPECT_NEAR(r.squared_distance, 0.0, 1e-10);
  }
}

// The warm-start entry point works on a workspace bound with nothing but
// its method: the first ProjectLocal after each Bind derives the hodograph
// state itself, so a kGoldenSection or kQuinticRoots bind refines exactly
// like a kNewton bind (whose global solver builds that state eagerly) —
// same s, squared distance and evaluation count. The rebind from a
// different curve catches state left over from the previous Bind.
TEST(ProjectionTest, WarmEntryPointsNeedNoNewtonBind) {
  const BezierCurve curve = SShapeCubic();
  const BezierCurve other = DiagonalCubic();
  ProjectionOptions newton_options;
  newton_options.method = ProjectionMethod::kNewton;
  ProjectionWorkspace reference;
  reference.Bind(curve, newton_options);
  Rng rng(41);
  for (ProjectionMethod method :
       {ProjectionMethod::kGoldenSection, ProjectionMethod::kQuinticRoots}) {
    ProjectionOptions options;
    options.method = method;
    ProjectionWorkspace workspace;
    workspace.Bind(other, options);
    bool ignored = false;
    workspace.ProjectLocal(Vector{0.3, 0.6}.data().data(), 0.2, 0.6,
                           &ignored);
    workspace.Bind(curve, options);
    for (int i = 0; i < 64; ++i) {
      const Vector x{rng.Uniform(-0.1, 1.1), rng.Uniform(-0.1, 1.1)};
      const double s = ProjectOntoCurve(curve, x).s;
      // A tight bracket around the minimiser, a wide one, and a displaced
      // one whose argmin lands on an interior edge.
      const double brackets[][2] = {
          {std::max(0.0, s - 1.0 / 32.0), std::min(1.0, s + 1.0 / 32.0)},
          {0.1, 0.9},
          {std::min(0.8, s + 0.1), std::min(1.0, s + 0.2)}};
      for (const auto& bracket : brackets) {
        const double lo = bracket[0];
        const double hi = bracket[1];
        bool edge = false;
        bool reference_edge = false;
        const ProjectionResult local =
            workspace.ProjectLocal(x.data().data(), lo, hi, &edge);
        const ProjectionResult reference_local =
            reference.ProjectLocal(x.data().data(), lo, hi, &reference_edge);
        EXPECT_EQ(local.s, reference_local.s) << "row " << i;
        EXPECT_EQ(local.squared_distance, reference_local.squared_distance);
        EXPECT_EQ(local.evaluations, reference_local.evaluations);
        EXPECT_EQ(edge, reference_edge);
      }
    }
  }
}

}  // namespace
}  // namespace rpc::opt
