#include "opt/curve_projection.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "curve/simd_backend.h"
#include "opt/batch_projection.h"
#include "opt/golden_section.h"
#include "opt/polynomial.h"

namespace rpc::opt {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

namespace {

// Relative slack when comparing candidate minima; within this the larger s
// wins (the sup tie-break of Eq. A-2).
constexpr double kTieRelTol = 1e-9;

// Interior grid cells ProjectLocal places across a warm-start bracket before
// refining the best one: two cells probe the bracket ends and its centre
// (the previous s* for an unclipped bracket) — enough to detect the
// minimiser escaping while keeping the warm path a handful of evaluations.
constexpr int kLocalGridCells = 2;

}  // namespace

// Function object handed to Golden Section Search; a named struct (instead
// of a capturing lambda wrapped in std::function) keeps the refinement loop
// allocation-free.
struct ProjectionObjective {
  ProjectionWorkspace* workspace;
  const double* x;
  double operator()(double s) const { return workspace->ObjectiveAt(x, s); }
};

void ProjectionWorkspace::BindShared(
    std::shared_ptr<const BezierCurve> curve,
    const ProjectionOptions& options) {
  assert(curve != nullptr);
  // Bind first: it must not observe the new shared_curve_ (it resets state
  // from scratch), and the old reference must survive until the rebind to
  // the new curve is complete in case both point into the same shard.
  std::shared_ptr<const BezierCurve> keep_alive = std::move(shared_curve_);
  Bind(*curve, options);
  shared_curve_ = std::move(curve);
}

void ProjectionWorkspace::Bind(const BezierCurve& curve,
                               const ProjectionOptions& options) {
  shared_curve_.reset();
  curve_ = &curve;
  options_ = options;
  eval_.Bind(curve);
  const int d = curve.dimension();
  const int g = std::max(options.grid_points, 2);
  grid_dist_.resize(static_cast<size_t>(g) + 1);
  // Hodograph + second derivative: kNewton's global solver needs them now;
  // the other methods need them only for the warm-start local refinement,
  // which derives them on first use — a global-search-only bind (every
  // full re-projection pass, every serving bind) never pays for them.
  derivatives_ready_ = false;
  if (options.method == ProjectionMethod::kNewton) EnsureDerivativeCurves();
  if (options.method == ProjectionMethod::kQuinticRoots) {
    curve.PowerBasisCoefficientsInto(&power_);
    stationarity_coeffs_.resize(static_cast<size_t>(2 * curve.degree()));
  } else {
    // Block-path buffers for the grid methods; sized here so ProjectBlock
    // allocates nothing. grid_f_ is filled lazily on the first block (the
    // per-point path never needs it).
    block_.Bind(d);
    grid_f_.resize((static_cast<size_t>(g) + 1) * static_cast<size_t>(d));
    grid_dist_block_.resize((static_cast<size_t>(g) + 1) *
                            RowBlock::kLaneStride);
    golden_xt_.resize(static_cast<size_t>(d) * RowBlock::kMaxRows);
    block_results_.resize(RowBlock::kMaxRows);
  }
  grid_f_ready_ = false;
  ResetEvaluationCounts();
}

void ProjectionWorkspace::EnsureDerivativeCurves() {
  if (derivatives_ready_) return;
  // In-place rebinds: the warm-start engine re-Binds every outer
  // iteration, so the hodograph state must reuse its buffers rather than
  // reallocate (the steady-state zero-allocation contract).
  curve_->DerivativeCurveInto(&hodograph_);
  hodograph_.DerivativeCurveInto(&second_);
  hodograph_eval_.Bind(hodograph_);
  second_eval_.Bind(second_);
  const size_t d = static_cast<size_t>(curve_->dimension());
  deriv_.resize(d);
  curvature_.resize(d);
  point_.resize(d);
  derivatives_ready_ = true;
}

void ProjectionWorkspace::ResetEvaluationCounts() {
  objective_evals_ = 0;
  stationarity_evals_ = 0;
  root_workspace_.ResetEvaluationCount();
}

double ProjectionWorkspace::ObjectiveAt(const double* x, double s) {
  ++objective_evals_;
  return eval_.SquaredDistance(x, s);
}

double ProjectionWorkspace::StationarityAt(const double* x, double s) {
  // g(s) = f'(s) . (x - f(s)).
  ++stationarity_evals_;
  hodograph_eval_.Evaluate(s, deriv_.data());
  eval_.Evaluate(s, point_.data());
  const int d = curve_->dimension();
  double dot = 0.0;
  for (int i = 0; i < d; ++i) {
    dot += deriv_[static_cast<size_t>(i)] *
           (x[i] - point_[static_cast<size_t>(i)]);
  }
  return dot;
}

double ProjectionWorkspace::StationarityWithSlopeAt(const double* x, double s,
                                                    double* slope) {
  // Fused g(s) and g'(s): f(s), f'(s) and f''(s) are each evaluated once,
  // where the StationarityAt + StationarityDerivativeAt pair evaluated f
  // and f' twice. Each accumulator runs in the same order as the unfused
  // helpers, so the values are bit-identical. Counts as one stationarity
  // evaluation (the slope was never counted separately).
  ++stationarity_evals_;
  hodograph_eval_.Evaluate(s, deriv_.data());
  second_eval_.Evaluate(s, curvature_.data());
  eval_.Evaluate(s, point_.data());
  const int d = curve_->dimension();
  double value = 0.0;
  double dot = 0.0;
  double deriv_sq = 0.0;
  for (int i = 0; i < d; ++i) {
    const double residual = x[i] - point_[static_cast<size_t>(i)];
    value += deriv_[static_cast<size_t>(i)] * residual;
    dot += curvature_[static_cast<size_t>(i)] * residual;
    deriv_sq += deriv_[static_cast<size_t>(i)] *
                deriv_[static_cast<size_t>(i)];
  }
  *slope = dot - deriv_sq;
  return value;
}

double ProjectionWorkspace::StationarityDerivativeAt(const double* x,
                                                     double s) {
  // g'(s) = f''(s) . (x - f(s)) - ||f'(s)||^2.
  hodograph_eval_.Evaluate(s, deriv_.data());
  second_eval_.Evaluate(s, curvature_.data());
  eval_.Evaluate(s, point_.data());
  const int d = curve_->dimension();
  double dot = 0.0;
  double deriv_sq = 0.0;
  for (int i = 0; i < d; ++i) {
    dot += curvature_[static_cast<size_t>(i)] *
           (x[i] - point_[static_cast<size_t>(i)]);
    deriv_sq += deriv_[static_cast<size_t>(i)] *
                deriv_[static_cast<size_t>(i)];
  }
  return dot - deriv_sq;
}

void ProjectionWorkspace::ConsiderCandidate(const double* x, double s,
                                            ProjectionResult* best) {
  const double dist = ObjectiveAt(x, s);
  const double slack = kTieRelTol * (1.0 + best->squared_distance);
  if (dist < best->squared_distance - slack ||
      (dist <= best->squared_distance + slack && s > best->s)) {
    best->squared_distance = dist;
    best->s = s;
  }
  ++best->evaluations;
}

void ProjectionWorkspace::ConsiderPrecomputed(double s, double dist,
                                              ProjectionResult* best) {
  const double slack = kTieRelTol * (1.0 + best->squared_distance);
  if (dist < best->squared_distance - slack ||
      (dist <= best->squared_distance + slack && s > best->s)) {
    best->squared_distance = dist;
    best->s = s;
  }
}

ProjectionResult ProjectionWorkspace::ProjectViaGrid(const double* x,
                                                     bool refine) {
  const int g = std::max(options_.grid_points, 2);
  for (int i = 0; i <= g; ++i) {
    grid_dist_[static_cast<size_t>(i)] =
        ObjectiveAt(x, static_cast<double>(i) / g);
  }
  return FinishGridFromDists(x, grid_dist_.data(), /*stride=*/1, refine);
}

ProjectionResult ProjectionWorkspace::FinishGridFromDists(const double* x,
                                                          const double* gd,
                                                          int stride,
                                                          bool refine) {
  const int g = std::max(options_.grid_points, 2);
  ProjectionResult best;
  best.squared_distance = gd[0];
  best.s = 0.0;
  best.evaluations = g + 1;
  for (int i = 1; i <= g; ++i) {
    ConsiderPrecomputed(static_cast<double>(i) / g,
                        gd[static_cast<size_t>(i) * stride], &best);
  }
  if (!refine) return best;

  // Refine every grid-local minimum bracket with Golden Section Search and
  // keep the global best. Brackets at the boundary are included so that
  // projections landing on s = 0 or s = 1 are found.
  const ProjectionObjective objective{this, x};
  for (int i = 0; i <= g; ++i) {
    const bool left_ok =
        i == 0 || gd[static_cast<size_t>(i) * stride] <=
                      gd[static_cast<size_t>(i - 1) * stride];
    const bool right_ok =
        i == g || gd[static_cast<size_t>(i) * stride] <=
                      gd[static_cast<size_t>(i + 1) * stride];
    if (!left_ok || !right_ok) continue;
    const double lo = std::max(0.0, static_cast<double>(i - 1) / g);
    const double hi = std::min(1.0, static_cast<double>(i + 1) / g);
    const ScalarMinResult gss =
        GoldenSectionMinimizeWith(objective, lo, hi, options_.tol);
    best.evaluations += gss.evaluations;
    // gss.fx is the objective at gss.x, already evaluated (and counted)
    // inside the search — reuse it rather than paying a second evaluation.
    ConsiderPrecomputed(gss.x, gss.fx, &best);
  }
  return best;
}

// Safeguarded Newton refinement of every grid-local minimum: iterates on
// g(s) = d/ds ||x - f(s)||^2 / -2 = f'(s).(x - f(s)), with derivative
// g'(s) = f''(s).(x - f(s)) - ||f'(s)||^2, falling back to bisection when a
// step leaves the bracket.
ProjectionResult ProjectionWorkspace::ProjectViaNewton(const double* x) {
  const int g = std::max(options_.grid_points, 2);
  for (int i = 0; i <= g; ++i) {
    grid_dist_[static_cast<size_t>(i)] =
        ObjectiveAt(x, static_cast<double>(i) / g);
  }
  return FinishNewtonFromDists(x, grid_dist_.data(), /*stride=*/1);
}

ProjectionResult ProjectionWorkspace::FinishNewtonFromDists(const double* x,
                                                            const double* gd,
                                                            int stride) {
  const int g = std::max(options_.grid_points, 2);
  ProjectionResult best;
  best.s = 0.0;
  best.squared_distance = gd[0];
  best.evaluations = g + 1;
  // The s = 1 boundary candidate was already evaluated by the grid pass;
  // reuse its grid entry so the evaluation is not double-counted.
  ConsiderPrecomputed(1.0, gd[static_cast<size_t>(g) * stride], &best);

  for (int i = 0; i <= g; ++i) {
    const bool left_ok =
        i == 0 || gd[static_cast<size_t>(i) * stride] <=
                      gd[static_cast<size_t>(i - 1) * stride];
    const bool right_ok =
        i == g || gd[static_cast<size_t>(i) * stride] <=
                      gd[static_cast<size_t>(i + 1) * stride];
    if (!left_ok || !right_ok) continue;
    const double lo = std::max(0.0, static_cast<double>(i - 1) / g);
    const double hi = std::min(1.0, static_cast<double>(i + 1) / g);
    const double s = NewtonRefine(x, lo, hi, &best);
    ConsiderCandidate(x, std::clamp(s, 0.0, 1.0), &best);
  }
  return best;
}

double ProjectionWorkspace::NewtonRefine(const double* x, double lo,
                                         double hi, ProjectionResult* best) {
  // g is decreasing through a minimum: g(lo) >= 0 >= g(hi) is the usual
  // situation; when signs do not bracket (boundary minima) Newton from
  // the midpoint with clamping still behaves.
  double s = 0.5 * (lo + hi);
  for (int iter = 0; iter < 50; ++iter) {
    double slope = 0.0;
    const double value = StationarityWithSlopeAt(x, s, &slope);
    ++best->evaluations;
    if (std::fabs(value) < options_.tol) break;
    // Shrink the safeguard bracket using the sign of g.
    if (value > 0.0) {
      lo = s;
    } else {
      hi = s;
    }
    double next = (slope < 0.0) ? s - value / slope : 0.5 * (lo + hi);
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - s) < options_.tol) {
      s = next;
      break;
    }
    s = next;
  }
  return s;
}

ProjectionResult ProjectionWorkspace::ProjectLocal(const double* x, double lo,
                                                   double hi,
                                                   bool* hit_edge) {
  assert(bound());
  *hit_edge = false;
  // Grid-only has no refinement stage to localise; a warm start degenerates
  // to the full grid argmin.
  if (options_.method == ProjectionMethod::kGridOnly) return Project(x);
  EnsureDerivativeCurves();
  lo = std::clamp(lo, 0.0, 1.0);
  hi = std::clamp(hi, 0.0, 1.0);
  assert(hi > lo);

  // Interior grid over the bracket, argmin with the sup tie-break.
  const double width = hi - lo;
  ProjectionResult best;
  best.s = lo;
  best.squared_distance = ObjectiveAt(x, lo);
  best.evaluations = 1;
  int best_idx = 0;
  for (int j = 1; j <= kLocalGridCells; ++j) {
    const double s =
        (j == kLocalGridCells) ? hi : lo + width * j / kLocalGridCells;
    const double dist = ObjectiveAt(x, s);
    ++best.evaluations;
    const double slack = kTieRelTol * (1.0 + best.squared_distance);
    if (dist < best.squared_distance - slack ||
        (dist <= best.squared_distance + slack && s > best.s)) {
      best.squared_distance = dist;
      best.s = s;
      best_idx = j;
    }
  }
  // An argmin on a bracket edge that is not a domain boundary means the
  // true minimiser may sit outside the bracket: report and let the caller
  // run the global search instead of refining a likely-wrong cell.
  if ((best_idx == 0 && lo > 0.0) ||
      (best_idx == kLocalGridCells && hi < 1.0)) {
    *hit_edge = true;
    return best;
  }
  const double cell_lo =
      (best_idx == 0) ? lo : lo + width * (best_idx - 1) / kLocalGridCells;
  const double cell_hi = (best_idx == kLocalGridCells)
                             ? hi
                             : lo + width * (best_idx + 1) / kLocalGridCells;
  const double s = NewtonRefine(x, cell_lo, cell_hi, &best);
  ConsiderCandidate(x, std::clamp(s, 0.0, 1.0), &best);
  return best;
}

ProjectionResult ProjectionWorkspace::ProjectViaPolynomialRoots(
    const double* x) {
  const int k = curve_->degree();
  const int d = curve_->dimension();

  // f(s) = sum_j a_j s^j (column j of `power_`), so
  // r(s) = x - f(s) has coefficients r_0 = x - a_0, r_j = -a_j (j >= 1) and
  // f'(s) has coefficients (j+1) a_{j+1}. The stationarity condition
  // g(s) = f'(s) . (x - f(s)) = 0 is a degree 2k-1 polynomial (Eq. 20).
  std::fill(stationarity_coeffs_.begin(), stationarity_coeffs_.end(), 0.0);
  for (int dim = 0; dim < d; ++dim) {
    for (int i = 0; i + 1 <= k; ++i) {
      const double fprime_i = (i + 1) * power_(dim, i + 1);
      for (int j = 0; j <= k; ++j) {
        const double r_j =
            (j == 0) ? (x[dim] - power_(dim, 0)) : -power_(dim, j);
        stationarity_coeffs_[static_cast<size_t>(i + j)] += fprime_i * r_j;
      }
    }
  }
  ProjectionResult best;
  best.s = 0.0;
  best.squared_distance = ObjectiveAt(x, 0.0);
  best.evaluations = 1;
  ConsiderCandidate(x, 1.0, &best);
  const std::int64_t sturm_before = root_workspace_.polynomial_evaluations();
  const int num_roots = root_workspace_.RealRootsInInterval(
      stationarity_coeffs_.data(),
      static_cast<int>(stationarity_coeffs_.size()), 0.0, 1.0, options_.tol,
      roots_, PolynomialRootWorkspace::kMaxDegree);
  if (num_roots >= 0) {
    // The chain evaluations are evaluations of the stationarity polynomial
    // g(s): account for them like kNewton's stationarity probes so the
    // methods' ProjectionResult::evaluations are comparable.
    const std::int64_t sturm =
        root_workspace_.polynomial_evaluations() - sturm_before;
    stationarity_evals_ += sturm;
    best.evaluations += static_cast<int>(sturm);
    for (int i = 0; i < num_roots; ++i) {
      ConsiderCandidate(x, roots_[i], &best);
    }
    return best;
  }
  // Degree beyond the fixed workspace capacity (k > 10): allocating
  // fallback, identical roots.
  const Polynomial stationarity{std::vector<double>(stationarity_coeffs_)};
  for (double root :
       stationarity.RealRootsInInterval(0.0, 1.0, options_.tol)) {
    ConsiderCandidate(x, root, &best);
  }
  return best;
}

ProjectionResult ProjectionWorkspace::Project(const double* x) {
  assert(bound());
  switch (options_.method) {
    case ProjectionMethod::kGoldenSection:
      return ProjectViaGrid(x, /*refine=*/true);
    case ProjectionMethod::kGridOnly:
      return ProjectViaGrid(x, /*refine=*/false);
    case ProjectionMethod::kQuinticRoots:
      return ProjectViaPolynomialRoots(x);
    case ProjectionMethod::kNewton:
      return ProjectViaNewton(x);
  }
  return ProjectViaGrid(x, /*refine=*/true);
}

void ProjectionWorkspace::EnsureGridCurveValues() {
  if (grid_f_ready_) return;
  const int g = std::max(options_.grid_points, 2);
  const int d = curve_->dimension();
  // eval_.Evaluate runs the exact per-coordinate operation sequence the
  // per-point SquaredDistance paths run inline (including the exact end
  // control points at s = 0 / s = 1), so distances computed from these
  // shared values are bit-identical to the per-point path.
  for (int i = 0; i <= g; ++i) {
    eval_.Evaluate(static_cast<double>(i) / g,
                   grid_f_.data() + static_cast<size_t>(i) * d);
  }
  grid_f_ready_ = true;
}

void ProjectionWorkspace::ProjectPackedBlock(const double* rows,
                                             int row_stride, double* s_out,
                                             double* squared_out) {
  const int count = block_.rows();
  assert(block_.dim() == curve_->dimension());
  assert(options_.method != ProjectionMethod::kQuinticRoots);
  const int g = std::max(options_.grid_points, 2);
  const int d = curve_->dimension();
  EnsureGridCurveValues();

  // Grid stage, one kernel sweep over the whole block per grid point: the
  // interior points use the fused reference ordering (the per-point hot
  // path's), the endpoints the sequential ordering (the per-point endpoint
  // branch's) — see SimdOps. Each row's g+1 distances land in a column of
  // grid_dist_block_ and are accounted exactly like g+1 ObjectiveAt calls.
  const curve::SimdOps& simd = curve::ActiveSimd();
  for (int i = 0; i <= g; ++i) {
    const double* f = grid_f_.data() + static_cast<size_t>(i) * d;
    double* dist =
        grid_dist_block_.data() + static_cast<size_t>(i) * RowBlock::kLaneStride;
    if (i == 0 || i == g) {
      simd.tile_squared_distances_seq(block_.tile(), RowBlock::kLaneStride, d,
                                      count, f, dist);
    } else {
      simd.tile_squared_distances_fused(block_.tile(), RowBlock::kLaneStride,
                                        d, count, f, dist);
    }
  }
  objective_evals_ += static_cast<std::int64_t>(g + 1) * count;

  // Grid scan per row, fed by each row's column of kernel-computed grid
  // distances. Grid-only stops there; Newton refines inside the scan
  // (divergent solver state); Golden Section defers refinement so every
  // bracket of every row refines in lock step through the whole-search
  // kernel, one bracket per SIMD lane, at any block size and on every
  // backend. All three are bit-identical to Project, counters included.
  for (int i = 0; i < count; ++i) {
    const double* x = rows + static_cast<size_t>(i) * row_stride;
    const double* gd = grid_dist_block_.data() + i;
    block_results_[static_cast<size_t>(i)] =
        options_.method == ProjectionMethod::kNewton
            ? FinishNewtonFromDists(x, gd, RowBlock::kLaneStride)
            : FinishGridFromDists(x, gd, RowBlock::kLaneStride,
                                  /*refine=*/false);
  }
  if (options_.method == ProjectionMethod::kGoldenSection) {
    RefineGoldenBlock(rows, row_stride, count, block_results_.data());
  }
  for (int i = 0; i < count; ++i) {
    const ProjectionResult& result = block_results_[static_cast<size_t>(i)];
    s_out[i] = result.s;
    if (squared_out != nullptr) squared_out[i] = result.squared_distance;
  }
}

void ProjectionWorkspace::RefineGoldenBlock(const double* rows, int row_stride,
                                            int count,
                                            ProjectionResult* results) {
  const int g = std::max(options_.grid_points, 2);
  const int d = curve_->dimension();
  // Bracket detection in the per-row path's order (rows ascending, grid
  // index ascending). A wave runs as soon as it fills, so candidates apply
  // in collection order: per row, FinishGridFromDists' tie-break sequence.
  int tasks = 0;
  for (int r = 0; r < count; ++r) {
    const double* gd = grid_dist_block_.data() + r;
    const double* x = rows + static_cast<size_t>(r) * row_stride;
    for (int i = 0; i <= g; ++i) {
      const bool left_ok =
          i == 0 || gd[static_cast<size_t>(i) * RowBlock::kLaneStride] <=
                        gd[static_cast<size_t>(i - 1) * RowBlock::kLaneStride];
      const bool right_ok =
          i == g || gd[static_cast<size_t>(i) * RowBlock::kLaneStride] <=
                        gd[static_cast<size_t>(i + 1) * RowBlock::kLaneStride];
      if (!left_ok || !right_ok) continue;
      golden_wave_.row[tasks] = r;
      golden_wave_.lo[tasks] = std::max(0.0, static_cast<double>(i - 1) / g);
      golden_wave_.hi[tasks] = std::min(1.0, static_cast<double>(i + 1) / g);
      for (int j = 0; j < d; ++j) {
        golden_xt_[static_cast<size_t>(j) * RowBlock::kMaxRows + tasks] = x[j];
      }
      if (++tasks == RowBlock::kMaxRows) {
        RunGoldenWave(rows, row_stride, tasks, results);
        tasks = 0;
      }
    }
  }
  if (tasks > 0) RunGoldenWave(rows, row_stride, tasks, results);
}

void ProjectionWorkspace::RunGoldenWave(const double* rows, int row_stride,
                                        int tasks, ProjectionResult* results) {
  constexpr int kMaxIterations = 200;  // GoldenSectionMinimizeWith's default
  GoldenWave& wave = golden_wave_;
  // Pad the wave to whole vectors with copies of its last task, whose
  // results are dropped: small blocks then search in vector lanes instead
  // of the scalar remainder path.
  const int lanes = curve::ActiveSimd().golden_lanes;
  const int padded =
      std::min(RowBlock::kMaxRows, (tasks + lanes - 1) / lanes * lanes);
  const int d = curve_->dimension();
  for (int t = tasks; t < padded; ++t) {
    wave.lo[t] = wave.lo[tasks - 1];
    wave.hi[t] = wave.hi[tasks - 1];
    for (int j = 0; j < d; ++j) {
      double* column =
          golden_xt_.data() + static_cast<size_t>(j) * RowBlock::kMaxRows;
      column[t] = column[tasks - 1];
    }
  }
  eval_.GoldenRefineMulti(golden_xt_.data(), RowBlock::kMaxRows, padded,
                          wave.lo, wave.hi, options_.tol, kMaxIterations,
                          wave.s, wave.dist, wave.evaluations, wave.endpoint);
  for (int t = 0; t < tasks; ++t) {
    ProjectionResult& best = results[wave.row[t]];
    if (wave.endpoint[t] != 0) {
      // A probe landed exactly on s = 0 or 1, where the per-point objective
      // takes the exact-endpoint branch the kernel does not model: redo the
      // search per point. Its ObjectiveAt calls count its evaluations, so
      // the kernel's count for this lane is dropped. (Brackets are at least
      // one grid cell wide, so this takes a tolerance far below the
      // default; it is kept for exact equivalence.)
      const ProjectionObjective objective{
          this, rows + static_cast<size_t>(wave.row[t]) * row_stride};
      const ScalarMinResult gss = GoldenSectionMinimizeWith(
          objective, wave.lo[t], wave.hi[t], options_.tol, kMaxIterations);
      best.evaluations += gss.evaluations;
      ConsiderPrecomputed(gss.x, gss.fx, &best);
      continue;
    }
    objective_evals_ += wave.evaluations[t];
    best.evaluations += wave.evaluations[t];
    ConsiderPrecomputed(wave.s[t], wave.dist[t], &best);
  }
}

void ProjectionWorkspace::ProjectBlock(const double* rows, int count,
                                       int row_stride, double* s_out,
                                       double* squared_out) {
  assert(bound());
  // A single row has nothing to batch: packing it plus one kernel call per
  // grid point on a one-lane tile costs more than Project's per-point
  // evaluations, and single-row point queries are serving's common case.
  // Exact root solving has no grid stage to batch at any size.
  if (options_.method == ProjectionMethod::kQuinticRoots || count == 1) {
    for (int i = 0; i < count; ++i) {
      const ProjectionResult result =
          Project(rows + static_cast<size_t>(i) * row_stride);
      s_out[i] = result.s;
      if (squared_out != nullptr) squared_out[i] = result.squared_distance;
    }
    return;
  }
  for (int begin = 0; begin < count; begin += RowBlock::kMaxRows) {
    const int chunk = std::min(RowBlock::kMaxRows, count - begin);
    const double* chunk_rows = rows + static_cast<size_t>(begin) * row_stride;
    block_.Pack(chunk_rows, chunk, row_stride);
    ProjectPackedBlock(chunk_rows, row_stride, s_out + begin,
                       squared_out == nullptr ? nullptr : squared_out + begin);
  }
}

ProjectionResult ProjectOntoCurve(const BezierCurve& curve, const Vector& x,
                                  const ProjectionOptions& options) {
  assert(x.size() == curve.dimension());
  ProjectionWorkspace workspace;
  workspace.Bind(curve, options);
  return workspace.Project(x.data().data());
}

Vector ProjectRows(const BezierCurve& curve, const Matrix& data,
                   const ProjectionOptions& options,
                   double* total_squared_distance) {
  return ProjectRowsBatch(curve, data, options, /*pool=*/nullptr,
                          total_squared_distance);
}

}  // namespace rpc::opt
