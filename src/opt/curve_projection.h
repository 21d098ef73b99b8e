#ifndef RPC_OPT_CURVE_PROJECTION_H_
#define RPC_OPT_CURVE_PROJECTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "curve/bezier.h"
#include "linalg/vector.h"
#include "opt/polynomial.h"
#include "opt/row_block.h"

namespace rpc::opt {

/// How the per-point projection index s_f(x) (Eq. A-2 / Eq. 20-22) is found.
enum class ProjectionMethod {
  /// Coarse grid to bracket local minima, Golden Section Search to refine —
  /// the method Algorithm 1 adopts.
  kGoldenSection,
  /// Solve the stationarity polynomial f'(s).(x - f(s)) = 0 exactly (degree
  /// 2k-1, the quintic of Eq. 20 for cubics) with Sturm root isolation,
  /// standing in for Jenkins-Traub [32].
  kQuinticRoots,
  /// Pure grid argmin; ablation baseline showing why refinement matters.
  kGridOnly,
  /// Safeguarded Newton on the stationarity condition from the best grid
  /// bracket — the Gradient/Gauss-Newton family Pastva [20] used for
  /// Bezier fitting. Quadratic local convergence, cheaper than GSS.
  kNewton,
};

struct ProjectionOptions {
  ProjectionMethod method = ProjectionMethod::kGoldenSection;
  /// Grid resolution for bracketing (kGoldenSection) or the answer itself
  /// (kGridOnly).
  int grid_points = 32;
  /// Bracket-width tolerance for Golden Section refinement and root
  /// tolerance for kQuinticRoots.
  double tol = 1e-10;

  bool operator==(const ProjectionOptions&) const = default;
};

struct ProjectionResult {
  /// The projection index; ties between equally near curve points are broken
  /// toward the largest s (the `sup` in Hastie's Eq. A-2).
  double s = 0.0;
  double squared_distance = 0.0;
  /// Number of evaluations the solver performed for this point: every
  /// squared-distance evaluation plus, for kNewton, every stationarity
  /// evaluation and, for kQuinticRoots, every Horner evaluation of the
  /// stationarity polynomial's Sturm chain during root isolation and
  /// refinement (so method cost comparisons are honest). No evaluation is
  /// counted twice — reusing a precomputed grid value (e.g. the s = 1
  /// boundary probe) costs nothing here. The same definition holds for all
  /// four methods; ProjectionWorkspace's counters let tests assert it.
  int evaluations = 0;
};

/// Reusable per-worker engine for projecting many points onto one curve.
///
/// Bind() hoists all per-curve work out of the per-point loop — the Bezier
/// evaluation workspace (with its cubic Horner fast path), the grid scratch,
/// the hodograph / second-derivative curves (kNewton), and the power-basis
/// coefficients of the stationarity polynomial (kQuinticRoots). The other
/// methods derive the hodograph state on the first ProjectLocal() call
/// after each Bind, so global-search-only binds never pay for it. Once a
/// workspace's buffers have settled, Project() and ProjectLocal() are
/// heap-allocation-free for every method — kQuinticRoots runs its Sturm
/// root isolation inside a fixed-capacity PolynomialRootWorkspace.
///
/// One workspace per thread: Project() mutates the scratch, so workspaces
/// must not be shared across concurrent callers (see ProjectRowsBatch).
class ProjectionWorkspace {
 public:
  ProjectionWorkspace() = default;
  // Not copyable/movable: hodograph_eval_ / second_eval_ hold pointers into
  // this object's own hodograph_ / second_ members, which a copy or move
  // would leave aimed at the source.
  ProjectionWorkspace(const ProjectionWorkspace&) = delete;
  ProjectionWorkspace& operator=(const ProjectionWorkspace&) = delete;

  /// Binds to a curve + options; the curve must outlive the binding.
  void Bind(const curve::BezierCurve& curve, const ProjectionOptions& options);

  /// Binds to an immutable shared curve, taking shared ownership: the
  /// workspace itself keeps the model alive for as long as it stays bound.
  /// This is the serving-tier contract — a shard can be evicted or swapped
  /// (copy-on-write) while a checked-out workspace is mid-query without the
  /// query ever seeing a torn or freed model. Rebinding (either overload)
  /// or destroying the workspace releases the reference.
  void BindShared(std::shared_ptr<const curve::BezierCurve> curve,
                  const ProjectionOptions& options);

  bool bound() const { return curve_ != nullptr; }

  /// Projects one point given as `dimension()` contiguous doubles.
  ProjectionResult Project(const double* x);

  /// Projects `count` row-major rows (row i at rows + i * row_stride) in
  /// RowBlock-sized sub-blocks: the rows are transposed into the bound
  /// structure-of-arrays tile and the grid stage runs through the active
  /// curve::SimdOps kernels — the curve value f(s_g) is evaluated once per
  /// grid point for the whole block (instead of once per row) and the
  /// residual distances vectorise across rows, one row per SIMD lane.
  /// Golden Section then refines every row's brackets in lock step, one
  /// whole search per SIMD lane (RefineGoldenBlock); Newton refines per
  /// row. Writes s_out[i] and, when non-null, squared_out[i].
  ///
  /// Bit-identical to calling Project(row i) for every row, for every
  /// method and every backend (the SimdOps contract): the serial, batch,
  /// warm-start and serving paths may mix the two entry points freely.
  /// A single row (count == 1) and kQuinticRoots, which has no grid stage,
  /// simply call Project. Evaluation accounting is preserved: the
  /// workspace counters and the implied per-row evaluations match the
  /// per-row path exactly.
  void ProjectBlock(const double* rows, int count, int row_stride,
                    double* s_out, double* squared_out);

  /// Warm-start local refinement: finds the best candidate inside the
  /// bracket [lo, hi] (a sub-interval of [0, 1]) only, via a small interior
  /// grid plus safeguarded Newton on the stationarity condition (with
  /// bisection safeguards when a step leaves the bracket).
  /// Sets *hit_edge when the interior grid's argmin landed on a bracket
  /// edge that is not a domain boundary — the true minimiser may then lie
  /// outside the bracket and the caller (IncrementalProjector) must fall
  /// back to the global Project(). kGridOnly has no refinement stage, so
  /// this method delegates straight to Project() for it. Works after any
  /// Bind: the first call derives the hodograph state the Newton step
  /// reads, unless the bind already did (kNewton). No global guarantees;
  /// same sup tie-break as Project within the bracket.
  ProjectionResult ProjectLocal(const double* x, double lo, double hi,
                                bool* hit_edge);

  /// Evaluation accounting since the last Bind/ResetEvaluationCounts:
  /// squared-distance evaluations plus stationarity evaluations (kNewton
  /// and the warm-start refinement count curve-space evaluations of
  /// g(s) = f'(s).(x - f(s)); kQuinticRoots counts the Sturm-chain Horner
  /// evaluations of the same polynomial). Tests assert that the sum matches
  /// the accumulated ProjectionResult::evaluations for every method.
  std::int64_t objective_evaluations() const { return objective_evals_; }
  std::int64_t stationarity_evaluations() const { return stationarity_evals_; }
  void ResetEvaluationCounts();

 private:
  friend struct ProjectionObjective;

  double ObjectiveAt(const double* x, double s);
  double StationarityAt(const double* x, double s);
  double StationarityDerivativeAt(const double* x, double s);
  /// g(s) and g'(s) in one pass (f, f', f'' each evaluated once); counts as
  /// a single stationarity evaluation, like StationarityAt.
  double StationarityWithSlopeAt(const double* x, double s, double* slope);
  void ConsiderCandidate(const double* x, double s, ProjectionResult* best);
  /// Same comparison/tie-break as ConsiderCandidate for a value that was
  /// already evaluated (and counted) elsewhere; performs no evaluation.
  static void ConsiderPrecomputed(double s, double dist,
                                  ProjectionResult* best);

  ProjectionResult ProjectViaGrid(const double* x, bool refine);
  ProjectionResult ProjectViaNewton(const double* x);
  ProjectionResult ProjectViaPolynomialRoots(const double* x);
  /// Shared back halves of the grid methods: given the g+1 grid distances
  /// for one point (entry i at gd[i * stride]), run the bracket detection
  /// and refinement exactly as ProjectViaGrid / ProjectViaNewton do. The
  /// per-point path passes grid_dist_ with stride 1; the block path passes
  /// a kernel-filled column of grid_dist_block_ with stride kLaneStride.
  ProjectionResult FinishGridFromDists(const double* x, const double* gd,
                                       int stride, bool refine);
  ProjectionResult FinishNewtonFromDists(const double* x, const double* gd,
                                         int stride);
  /// The ProjectBlock core for one sub-block already packed into block_
  /// (at most RowBlock::kMaxRows rows; refinement reads the same rows in
  /// their row-major form at `rows`).
  void ProjectPackedBlock(const double* rows, int row_stride, double* s_out,
                          double* squared_out);
  /// Lock-step Golden Section refinement, the kGoldenSection back half of
  /// ProjectPackedBlock: collects every grid-local-minimum bracket of the
  /// block's rows, in the per-row path's order, into waves of up to
  /// RowBlock::kMaxRows tasks, and hands each wave to one
  /// SimdOps::golden_refine_multi call that runs every bracket's entire
  /// search in its own SIMD lane. Per task the evaluation sequence,
  /// iteration count and result are GoldenSectionMinimizeWith's exactly; a
  /// task the kernel flags for probing s = 0 or s = 1 is redone through the
  /// per-point search, whose objective takes the exact-endpoint branch
  /// there. Candidates apply to results[row] in collection order — per row,
  /// FinishGridFromDists' bracket order — so the refined minimisers,
  /// tie-breaks and evaluation counters are bit-identical to the per-row
  /// path.
  void RefineGoldenBlock(const double* rows, int row_stride, int count,
                         ProjectionResult* results);
  /// Runs the first `tasks` collected brackets of golden_wave_ through the
  /// kernel, padded to whole vectors, and applies their candidates (see
  /// RefineGoldenBlock).
  void RunGoldenWave(const double* rows, int row_stride, int tasks,
                     ProjectionResult* results);
  /// Fills grid_f_ (f(s_g) for every grid point, lazily, once per Bind) for
  /// the block path's shared-curve-value kernels.
  void EnsureGridCurveValues();
  /// Derives the hodograph / second-derivative state (lazily, once per
  /// Bind) the Newton refinement reads.
  void EnsureDerivativeCurves();
  /// Safeguarded Newton on g(s) = f'(s).(x - f(s)) over [lo, hi], seeded at
  /// the midpoint; the shared refinement core of kNewton and ProjectLocal.
  double NewtonRefine(const double* x, double lo, double hi,
                      ProjectionResult* best);

  const curve::BezierCurve* curve_ = nullptr;
  /// Non-null only after BindShared: co-owns the bound curve.
  std::shared_ptr<const curve::BezierCurve> shared_curve_;
  ProjectionOptions options_;
  curve::BezierEvalWorkspace eval_;

  // Hodograph and second derivative: built by Bind for kNewton's solver,
  // otherwise on the first warm-start local refinement after a Bind.
  curve::BezierCurve hodograph_;
  curve::BezierCurve second_;
  curve::BezierEvalWorkspace hodograph_eval_;
  curve::BezierEvalWorkspace second_eval_;
  std::vector<double> deriv_;      // d scratch: f'(s)
  std::vector<double> curvature_;  // d scratch: f''(s)
  std::vector<double> point_;      // d scratch: f(s)

  // kQuinticRoots: power-basis coefficients of the curve (per Bind), the
  // stationarity coefficients (rebuilt per point, fixed size 2k), and the
  // fixed-capacity Sturm scratch + root output buffer.
  linalg::Matrix power_;
  std::vector<double> stationarity_coeffs_;
  PolynomialRootWorkspace root_workspace_;
  double roots_[PolynomialRootWorkspace::kMaxDegree];

  std::vector<double> grid_dist_;  // grid_points + 1 distances

  // Block-path state (sized per Bind, so the block sweeps stay
  // allocation-free): the SoA tile, the shared curve values f(s_g) for all
  // grid points ((g+1) x d, filled lazily once per Bind), and the
  // kernel-written grid distances ((g+1) x kLaneStride; the column with
  // stride kLaneStride holds one row's grid).
  RowBlock block_;
  std::vector<double> grid_f_;
  std::vector<double> grid_dist_block_;
  bool grid_f_ready_ = false;
  bool derivatives_ready_ = false;

  // Lock-step refinement scratch for one wave of brackets: the task-major
  // transpose of the wave's rows (column t = task t's coordinates, lane
  // stride kMaxRows; sized per Bind with the other block buffers) and the
  // fixed-size per-task kernel inputs and outputs.
  struct GoldenWave {
    int row[RowBlock::kMaxRows];  // block-local row of each task
    double lo[RowBlock::kMaxRows];
    double hi[RowBlock::kMaxRows];
    double s[RowBlock::kMaxRows];
    double dist[RowBlock::kMaxRows];
    int evaluations[RowBlock::kMaxRows];
    unsigned char endpoint[RowBlock::kMaxRows];
  };
  std::vector<double> golden_xt_;
  GoldenWave golden_wave_{};
  // The block path's per-row results (kMaxRows, sized per Bind).
  std::vector<ProjectionResult> block_results_;

  std::int64_t objective_evals_ = 0;
  std::int64_t stationarity_evals_ = 0;
};

/// Projects x onto the curve over s in [0, 1]: the global minimiser of
/// ||x - f(s)||^2, with the sup tie-break. Convenience wrapper that builds
/// a ProjectionWorkspace per call; loops over many points should hold a
/// workspace (or use ProjectRowsBatch) instead.
ProjectionResult ProjectOntoCurve(const curve::BezierCurve& curve,
                                  const linalg::Vector& x,
                                  const ProjectionOptions& options = {});

/// Projects every row of `data` (n x d); returns the n projection indices
/// and accumulates the summed squared distance J (Eq. 19) when
/// `total_squared_distance` is non-null. Serial; equivalent to
/// ProjectRowsBatch with a null pool.
linalg::Vector ProjectRows(const curve::BezierCurve& curve,
                           const linalg::Matrix& data,
                           const ProjectionOptions& options = {},
                           double* total_squared_distance = nullptr);

}  // namespace rpc::opt

#endif  // RPC_OPT_CURVE_PROJECTION_H_
