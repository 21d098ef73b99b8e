#ifndef RPC_CORE_RPC_LEARNER_H_
#define RPC_CORE_RPC_LEARNER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/rpc_curve.h"
#include "linalg/matrix.h"
#include "obs/trace.h"
#include "opt/curve_projection.h"
#include "order/orientation.h"

namespace rpc::core {

class FitWorkspace;

/// How Step 4 (re-projection of all n rows) is executed across outer
/// iterations. Both modes run on the same engine
/// (opt::IncrementalProjector, with the Step 5 normal-equation
/// accumulation fused into its row sweep); they differ only in how often
/// it resyncs, i.e. runs the full global search for every row.
enum class ReprojectionMode {
  /// Resync on every iteration: each row is re-projected from scratch —
  /// coarse grid over the whole of [0, 1] plus per-bracket refinement — so
  /// every pass equals opt::ProjectRowsBatch bit for bit. The reference
  /// the warm-start path is validated against.
  kFull,
  /// Warm-started incremental re-projection: after the first iteration
  /// each row is refined locally around its previous s* — near convergence
  /// the curve barely moves, so the optimal s* shifts only slightly per
  /// iteration (Eq. 19-20). A row falls back to the full global search when
  /// its local result is suspect (bracket-edge argmin, or squared distance
  /// above the certified curve-movement bound), and every 8th iteration
  /// re-projects all rows globally as a safety resync. On convergence the
  /// final scores and J always come from one last full projection (skipped
  /// only when the scores in hand already come from one), so the reported
  /// fit quality is measured exactly like kFull. Mid-trajectory J values
  /// are warm-measured upper bounds on the full-search J (within the
  /// certified-fallback slack), so convergence/rollback decisions can
  /// differ from kFull's by that slack. A warm pass costs ~0.55 (d=4) to
  /// ~0.7 (d=8) of a full pass, so the mode pays only on long trajectories
  /// (1.53x on 125-iteration Golden Section fits); a fit of three or four
  /// passes, or a seeded Refit that converges in one or two, gains nothing.
  /// kGridOnly has nothing to localise and runs full passes. Final J
  /// matches kFull within `tolerance` on the paper's fixtures.
  kWarmStart,
};

/// How the interior control points are initialised (Step 2 of Algorithm 1).
enum class RpcInit {
  /// Two random data rows, ordered along the diagonal — the paper's
  /// "randomly select samples as control points".
  kRandomSamples,
  /// Per-attribute 1/3 and 2/3 quantiles of the data (deterministic).
  kQuantiles,
  /// 1/3 and 2/3 of the worst-to-best diagonal (deterministic, shape-free).
  kDiagonal,
};

/// Degree of the Bezier ranking curve. The paper fixes k = 3 (Section 4.2:
/// k < 3 is too simple, k > 3 overfits); other degrees are exposed for the
/// ablation of that claim (E10). Degrees other than 3 use the same
/// alternating scheme with the generalised Bernstein design matrix.
struct RpcLearnOptions {
  int degree = 3;
  int max_iterations = 300;
  /// ΔJ threshold xi of Algorithm 1.
  double tolerance = 1e-7;
  /// Projection solver (Step 4): GSS by default.
  opt::ProjectionOptions projection;
  /// Step 4 resync cadence: kFull re-projects every row from scratch each
  /// iteration; kWarmStart reuses each row's previous s* and resyncs every
  /// 8th iteration (see ReprojectionMode). Default kFull — warm-start
  /// results are equivalent but not bit-identical mid-trajectory, so opt in
  /// where long fits dominate.
  ReprojectionMode reprojection = ReprojectionMode::kFull;
  /// Keep p0/p3 pinned to the alpha corners (Proposition 1 — guarantees the
  /// meta-rules). When false, end points are learned too and merely clamped
  /// into [0,1]^d, the freer behaviour Table 2's printed end points suggest.
  bool fix_end_points = true;
  /// Clamp margin keeping interior control points strictly inside (0,1).
  double clamp_margin = 1e-3;
  /// Richardson preconditioner (Section 5); off reproduces the unstable raw
  /// iteration for ablation E11.
  bool use_preconditioner = true;
  /// Fixed Richardson step; unset = 2 / (lambda_min + lambda_max) (Eq. 28).
  std::optional<double> gamma;
  /// Richardson steps per outer iteration.
  int richardson_steps_per_iteration = 4;
  /// Use the direct pseudo-inverse solve P = X (MZ)^+ (Eq. 26) instead of
  /// Richardson — the ill-conditioned baseline of ablation E11.
  bool use_pseudo_inverse_update = false;
  RpcInit init = RpcInit::kRandomSamples;
  uint64_t seed = 1234;
  /// Record J after every iteration (Proposition 2 diagnostics).
  bool record_history = true;
  /// Number of independent runs (different random initialisations); the
  /// fit with the lowest J wins. Theorem 3 guarantees a minimiser exists;
  /// restarts are the practical way to approach it when the alternating
  /// scheme lands in a local optimum. Only meaningful with
  /// RpcInit::kRandomSamples (deterministic inits always produce the same
  /// run). Must be >= 1.
  int restarts = 1;
  /// Worker-thread budget for Fit: 0 = hardware concurrency, 1 = fully
  /// serial (the pre-parallel behaviour), n > 1 = exactly n threads. The
  /// budget drives both levels of parallelism — Step 4's batch projection
  /// (rows partitioned across the pool, one evaluation workspace per
  /// worker) and, when restarts > 1, the independent restarts themselves
  /// (safe because each restart derives its RNG stream from its own seed).
  /// Results are bit-identical for every value: per-row projections are
  /// independent, the J reduction is ordered, and the best-restart
  /// selection scans in restart order.
  int num_threads = 0;
  /// Telemetry trace-context: a nonzero id makes Fit/Refit emit per-stage
  /// spans (fit.projection / fit.update / fit.convergence per outer
  /// iteration) under this trace. Never touches the fit arithmetic.
  obs::TraceId trace_id = 0;

  bool operator==(const RpcLearnOptions&) const = default;
};

/// Output of Algorithm 1.
struct RpcFitResult {
  RpcCurve curve;
  /// Projection scores s_i in [0,1] for the training rows (higher = closer
  /// to the best corner = ranked better).
  linalg::Vector scores;
  /// Final summed squared residual J(P*, s*) (Eq. 19).
  double final_j = 0.0;
  /// 1 - J / total scatter, the Section 6.2.1 metric.
  double explained_variance = 0.0;
  int iterations = 0;
  /// True when the ΔJ < xi criterion fired (as opposed to the iteration cap
  /// or the ΔJ < 0 safeguard).
  bool converged = false;
  /// J(P_t, s_t) per iteration when record_history is set; non-increasing
  /// by Proposition 2.
  std::vector<double> j_history;
  /// Wall-clock seconds this Fit spent in Step 4 (projection, including the
  /// final verification passes) and in Step 5 (normal-equation streaming +
  /// control-point update), summed over every restart that ran — the stage
  /// split `bench_projection_throughput --fit` reports.
  double projection_seconds = 0.0;
  double update_seconds = 0.0;
};

/// Learns a ranking principal curve from observations already normalised
/// into [0,1]^d (Algorithm 1). Use RpcRanker for the end-to-end pipeline on
/// raw data.
class RpcLearner {
 public:
  explicit RpcLearner(RpcLearnOptions options = {});

  /// `normalized_data` is n x d with every entry in [0,1] (small numerical
  /// slack allowed); n >= 4 rows are required to determine the cubic.
  Result<RpcFitResult> Fit(const linalg::Matrix& normalized_data,
                           const order::Orientation& alpha) const;

  /// Seeded refit: one fit trajectory (no restarts — the seed pins the
  /// basin) whose Step 2 initialisation is `seed_control_points` instead of
  /// sampled rows. The model is its control points: Step 4 re-derives every
  /// s* from them, so a refresh whose data barely moved converges in one or
  /// two outer iterations instead of a cold multi-restart fit — the
  /// streaming tier's model-refresh primitive. `seed_control_points` is
  /// d x (k+1), columns p0..pk, in the normalised space of
  /// `normalized_data`; a model fit under different normalisation bounds
  /// must be remapped first (Eq. 16: affine maps move control points, not
  /// scores — see stream::RemapControlPoints). The returned scores and J
  /// come from a full projection, exactly as in Fit. Deterministic: same
  /// data + same seed => bit-identical result, for every thread count.
  Result<RpcFitResult> Refit(const linalg::Matrix& normalized_data,
                             const order::Orientation& alpha,
                             const linalg::Matrix& seed_control_points) const;

  const RpcLearnOptions& options() const { return options_; }

 private:
  /// One restart. `pool` (nullable) parallelises the per-iteration batch
  /// projections and the update-stage segment accumulation; when restarts
  /// run concurrently each gets a null pool instead, so the two levels of
  /// parallelism never nest. `workspace` holds the Step 5 scratch and
  /// persists across outer iterations and restarts (serial restarts share
  /// one; concurrent restarts use one per worker). `seed_control_points`
  /// (nullable) replaces the Step 2 initialisation with a previous model's
  /// control points.
  Result<RpcFitResult> FitOnce(const linalg::Matrix& normalized_data,
                               const order::Orientation& alpha, uint64_t seed,
                               ThreadPool* pool, FitWorkspace* workspace,
                               const linalg::Matrix* seed_control_points) const;

  RpcLearnOptions options_;
};

/// Affinely rescales scores so the worst maps to 0 and the best to 1 — the
/// presentation convention of Table 2 (Luxembourg 1.0000, Swaziland 0).
linalg::Vector RescaleToUnit(const linalg::Vector& scores);

}  // namespace rpc::core

#endif  // RPC_CORE_RPC_LEARNER_H_
