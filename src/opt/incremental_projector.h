#ifndef RPC_OPT_INCREMENTAL_PROJECTOR_H_
#define RPC_OPT_INCREMENTAL_PROJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "curve/bernstein.h"
#include "curve/bezier.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/curve_projection.h"

namespace rpc::opt {

struct IncrementalProjectorOptions {
  /// Per-point solver configuration; shared by the warm and the full path.
  ProjectionOptions projection;
  /// Safety resync cadence: every `resync_period`-th ProjectInto() call (and
  /// always the first) runs the full global search for every row, so a row
  /// whose warm-started local refinement silently tracked the wrong local
  /// minimum is repaired within a bounded number of iterations. Values
  /// <= 1 resync on every call: the plain full re-projection engine
  /// (core::ReprojectionMode::kFull).
  int resync_period = 8;
};

/// Stateful re-projection engine for Step 4 of Algorithm 1: owns per-row
/// state (last s*, last squared distance) across outer iterations, so that
/// near convergence — when the curve barely moves and each row's optimal s*
/// shifts only slightly (Eq. 19-20; the locality Hastie-Stuetzle-style
/// alternating schemes exploit) — each row is re-projected by a cheap local
/// refinement on a one-grid-cell bracket instead of the full grid +
/// per-bracket search.
///
/// A row falls back to the full global search whenever the local result is
/// suspect:
///   * the local bracket's argmin landed on a bracket edge that is not a
///     domain boundary (the minimiser may have left the bracket), or
///   * the refined squared distance exceeds the certified bound
///     (sqrt(previous distance) + delta)^2, where delta bounds the curve's
///     movement between iterations via the control-point displacement
///     (convex-hull property: max_s |f_t(s) - f_{t-1}(s)| <=
///     max_r |p_r^t - p_r^{t-1}|), or
///   * the call is a periodic safety resync (`resync_period`).
///
/// With `resync_period <= 1` every call is a full pass, which makes the
/// projector the single Step 4 engine of both reprojection modes.
///
/// Fused accumulation (SetFusedAccumulators): the Step 5 normal equations
/// need every (s_i, x_i) pair the projection just produced, and the
/// separate accumulation sweep re-reads the whole dataset one iteration
/// later. ProjectInto's unit of parallel work is a contiguous run of rows
/// that one worker sweeps in order; when fused accumulators are attached
/// the units are exactly the accumulators' fixed-size segments, and each
/// projected row streams straight into its segment's
/// curve::BernsteinDesignAccumulator — so merging the segments in segment
/// order afterwards (core::FitWorkspace::ReduceFusedSegments) reproduces
/// the separate sweep bit for bit, saving one O(n) pass per outer
/// iteration.
///
/// Determinism: per-row results depend only on that row's own state, the
/// reduction of J runs in row order, and the fallback counter is summed per
/// worker slot — so scores and J are bit-identical for every thread count,
/// matching the ProjectRowsBatch contract. Full-path calls produce exactly
/// the ProjectRowsBatch results.
class IncrementalProjector {
 public:
  IncrementalProjector() = default;
  IncrementalProjector(const IncrementalProjector&) = delete;
  IncrementalProjector& operator=(const IncrementalProjector&) = delete;

  /// Binds to a data matrix (must outlive the projector) and resets all
  /// per-row state; the next ProjectInto() call is a full projection. `pool`
  /// may be null (serial).
  void Bind(const linalg::Matrix& data,
            const IncrementalProjectorOptions& options, ThreadPool* pool);
  bool bound() const { return data_ != nullptr; }

  /// Attaches per-segment Step 5 accumulators: every subsequent
  /// ProjectInto also streams (s_i, row_i) into the accumulator of row i's
  /// fixed `segment_rows`-row segment, fusing the normal-equation sweep
  /// into the projection workers. `segments` must hold at least
  /// ceil(n / segment_rows) accumulators, already Bind()-ed to the curve
  /// degree/dimension; the pass Reset()s each before filling it. Pass
  /// nullptr to detach.
  void SetFusedAccumulators(
      std::vector<curve::BernsteinDesignAccumulator>* segments,
      int segment_rows);

  /// Projects every bound row onto `curve`, warm-starting from the previous
  /// call's per-row results (full global search on the first call, on every
  /// `resync_period`-th call, and per-row on fallback). Writes the scores
  /// into *scores, resized in place, and J (Eq. 19) into
  /// `total_squared_distance` when non-null. Once the buffers' capacity has
  /// settled — after the first call — the whole projection pass performs
  /// zero heap allocations, the contract the learner's steady-state outer
  /// loop is built on.
  void ProjectInto(const curve::BezierCurve& curve, linalg::Vector* scores,
                   double* total_squared_distance);

  /// Diagnostics for the most recent ProjectInto() call.
  bool last_was_full() const { return last_was_full_; }
  std::int64_t last_fallback_count() const { return last_fallbacks_; }
  int calls() const { return calls_; }

 private:
  void ProjectRange(ProjectionWorkspace* workspace, bool full, double delta,
                    std::int64_t begin, std::int64_t end, double* scores,
                    double* squared, std::int64_t* fallbacks,
                    curve::BernsteinDesignAccumulator* accumulator);

  const linalg::Matrix* data_ = nullptr;
  IncrementalProjectorOptions options_;
  ThreadPool* pool_ = nullptr;

  // One workspace per worker; workspaces are rebound to the (mutated) curve
  // at the start of every Project call.
  std::vector<ProjectionWorkspace> workspaces_;

  std::vector<double> s_;       // per-row last s*
  std::vector<double> dist_;    // per-row last squared distance
  std::vector<double> squared_; // per-call row-ordered J reduction buffer
  std::vector<std::int64_t> fallback_slots_;  // per-worker fallback counts

  // Fused Step 5 accumulation (null = detached).
  std::vector<curve::BernsteinDesignAccumulator>* fused_segments_ = nullptr;
  int fused_segment_rows_ = 0;

  linalg::Matrix prev_control_; // control points seen by the previous call

  int calls_ = 0;
  bool last_was_full_ = false;
  std::int64_t last_fallbacks_ = 0;
};

}  // namespace rpc::opt

#endif  // RPC_OPT_INCREMENTAL_PROJECTOR_H_
