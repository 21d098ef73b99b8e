#include "opt/incremental_projector.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rpc::opt {

using curve::BezierCurve;
using linalg::Matrix;
using linalg::Vector;

namespace {
// Warm-start bracket half-width, in global grid cells (1 / grid_points):
// the cell size the full search refines, so a minimiser drifting less than
// one cell per iteration stays inside the bracket.
constexpr double kBracketCells = 1.0;

// Units of work per worker when no fused accumulators fix the
// segmentation: enough slack for dynamic load balancing, few enough that
// dispatch stays negligible next to the projections.
constexpr int kUnitsPerWorker = 4;
}  // namespace

void IncrementalProjector::Bind(const Matrix& data,
                                const IncrementalProjectorOptions& options,
                                ThreadPool* pool) {
  data_ = &data;
  options_ = options;
  pool_ = pool;
  const int parallelism =
      pool != nullptr ? std::max(pool->parallelism(), 1) : 1;
  // vector(count) value-constructs in place, which is all the non-movable
  // ProjectionWorkspace supports; the move-assignment only swaps buffers.
  workspaces_ = std::vector<ProjectionWorkspace>(
      static_cast<size_t>(parallelism));
  const size_t n = static_cast<size_t>(data.rows());
  s_.assign(n, 0.0);
  dist_.assign(n, 0.0);
  squared_.assign(n, 0.0);
  fallback_slots_.assign(static_cast<size_t>(parallelism), 0);
  fused_segments_ = nullptr;
  fused_segment_rows_ = 0;
  calls_ = 0;
  last_was_full_ = false;
  last_fallbacks_ = 0;
}

void IncrementalProjector::SetFusedAccumulators(
    std::vector<curve::BernsteinDesignAccumulator>* segments,
    int segment_rows) {
  assert(segments == nullptr || segment_rows >= 1);
  fused_segments_ = segments;
  fused_segment_rows_ = segment_rows;
}

void IncrementalProjector::ProjectInto(const BezierCurve& curve,
                                       Vector* scores_out,
                                       double* total_squared_distance) {
  assert(bound());
  assert(data_->cols() == curve.dimension() || data_->rows() == 0);
  const int n = data_->rows();
  // resize, not assign: every entry is overwritten below, so the zero-fill
  // would be a wasted O(n) sweep per outer iteration.
  scores_out->data().resize(static_cast<size_t>(n));
  Vector& scores = *scores_out;

  const int period = options_.resync_period;
  // kGridOnly has no refinement stage to localise, so a warm call would be
  // the full grid argmin plus per-row bookkeeping — run it as a plain full
  // pass instead.
  const bool full = calls_ == 0 || period <= 1 || calls_ % period == 0 ||
                    options_.projection.method == ProjectionMethod::kGridOnly;

  // Bound on how far any curve point moved since the previous call: by the
  // convex-hull property, max_s |f_t(s) - f_{t-1}(s)| <= max_r |dp_r|.
  double delta = 0.0;
  if (!full) {
    const Matrix& now = curve.control_points();
    assert(now.rows() == prev_control_.rows() &&
           now.cols() == prev_control_.cols());
    for (int r = 0; r < now.cols(); ++r) {
      double sq = 0.0;
      for (int i = 0; i < now.rows(); ++i) {
        const double diff = now(i, r) - prev_control_(i, r);
        sq += diff * diff;
      }
      delta = std::max(delta, sq);
    }
    delta = std::sqrt(delta);
  }

  // The curve's control points changed since the last call (the learner
  // mutates it between projections), so every workspace re-derives its
  // per-curve state here, on the calling thread.
  for (ProjectionWorkspace& w : workspaces_) w.Bind(curve, options_.projection);

  const int parallelism = static_cast<int>(workspaces_.size());
  std::fill(fallback_slots_.begin(), fallback_slots_.end(), 0);
  // One partition loop: units of contiguous rows, each swept in order by
  // one worker. With fused Step 5 accumulation the units are the
  // accumulators' fixed-size segments, so exactly one worker fills each
  // segment — the ordered-reduction determinism contract.
  const bool fused = fused_segments_ != nullptr;
  const std::int64_t unit_rows =
      fused ? fused_segment_rows_
            : std::max<std::int64_t>(
                  1, (n + kUnitsPerWorker * parallelism - 1) /
                         (kUnitsPerWorker * parallelism));
  const std::int64_t num_units = (n + unit_rows - 1) / unit_rows;
  assert(!fused || static_cast<size_t>(num_units) <= fused_segments_->size());
  const auto run_units = [&](std::int64_t first, std::int64_t last,
                             int worker) {
    for (std::int64_t unit = first; unit < last; ++unit) {
      curve::BernsteinDesignAccumulator* acc = nullptr;
      if (fused) {
        acc = &(*fused_segments_)[static_cast<size_t>(unit)];
        acc->Reset();
      }
      const std::int64_t begin = unit * unit_rows;
      ProjectRange(&workspaces_[static_cast<size_t>(worker)], full, delta,
                   begin, std::min<std::int64_t>(n, begin + unit_rows),
                   scores.data().data(), squared_.data(),
                   &fallback_slots_[static_cast<size_t>(worker)], acc);
    }
  };
  if (parallelism <= 1 || num_units <= 1) {
    run_units(0, num_units, 0);
  } else {
    pool_->ParallelFor(num_units, /*grain=*/1, run_units);
  }
  std::int64_t fallbacks = 0;
  for (const std::int64_t slot : fallback_slots_) fallbacks += slot;

  if (total_squared_distance != nullptr) {
    // Row-ordered reduction: J is bit-identical across thread counts.
    double total = 0.0;
    for (int i = 0; i < n; ++i) total += squared_[static_cast<size_t>(i)];
    *total_squared_distance = total;
  }

  prev_control_ = curve.control_points();
  ++calls_;
  last_was_full_ = full;
  last_fallbacks_ = fallbacks;
}

void IncrementalProjector::ProjectRange(
    ProjectionWorkspace* workspace, bool full, double delta,
    std::int64_t begin, std::int64_t end, double* scores, double* squared,
    std::int64_t* fallbacks, curve::BernsteinDesignAccumulator* accumulator) {
  const Matrix& data = *data_;
  if (begin >= end) return;
  if (full) {
    // Full resync: no per-row warm state feeds the projection, so the
    // whole range runs as one SoA block sweep through the SIMD grid
    // kernels (bit-identical to the per-row Project loop), followed by a
    // plain in-order bookkeeping pass.
    workspace->ProjectBlock(data.RowPtr(static_cast<int>(begin)),
                            static_cast<int>(end - begin), data.cols(),
                            scores + begin, squared + begin);
    for (std::int64_t i = begin; i < end; ++i) {
      const size_t row = static_cast<size_t>(i);
      s_[row] = scores[i];
      dist_[row] = squared[i];
      if (accumulator != nullptr) {
        accumulator->AccumulateRow(scores[i],
                                   data.RowPtr(static_cast<int>(i)));
      }
    }
    return;
  }
  const int g = std::max(options_.projection.grid_points, 2);
  const double half = kBracketCells / g;
  for (std::int64_t i = begin; i < end; ++i) {
    const double* x = data.RowPtr(static_cast<int>(i));
    const double s_prev = s_[static_cast<size_t>(i)];
    const double lo = std::max(0.0, s_prev - half);
    const double hi = std::min(1.0, s_prev + half);
    bool hit_edge = false;
    ProjectionResult result = workspace->ProjectLocal(x, lo, hi, &hit_edge);
    // Certified distance bound: the previous s* is inside the bracket and
    // the curve moved at most delta, so any honest local refinement must
    // land at or below (sqrt(d_prev) + delta)^2. Above it, something went
    // wrong (e.g. the bracket was clipped away from s_prev at a domain
    // boundary) — pay for the global search.
    const double certified = std::sqrt(dist_[static_cast<size_t>(i)]) + delta;
    if (hit_edge || result.squared_distance > certified * certified + 1e-12) {
      ++*fallbacks;
      // The rejected local probe's evaluations were really performed (and
      // counted by the workspace); keep them in the row's total so the
      // per-point accounting invariant holds.
      const int local_evaluations = result.evaluations;
      result = workspace->Project(x);
      result.evaluations += local_evaluations;
    }
    s_[static_cast<size_t>(i)] = result.s;
    dist_[static_cast<size_t>(i)] = result.squared_distance;
    scores[i] = result.s;
    squared[i] = result.squared_distance;
    if (accumulator != nullptr) accumulator->AccumulateRow(result.s, x);
  }
}

}  // namespace rpc::opt
