#include "core/rpc_learner.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/stringutil.h"
#include "core/fit_workspace.h"
#include "linalg/stats.h"
#include "opt/batch_projection.h"
#include "opt/incremental_projector.h"

namespace rpc::core {

using linalg::Matrix;
using linalg::Vector;

namespace {

// Wall-clock seconds between the two reads; the per-stage timing the fit
// bench reports (two clock reads per outer iteration, noise next to one
// projection pass).
double SecondsBetween(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// steady_clock time_point on the span time base (obs::TraceNowNs uses the
// same clock), so traced stages reuse the stage-timing clock reads.
std::int64_t ToTraceNs(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

// Per-attribute quantile of the column values.
double ColumnQuantile(const Matrix& data, int col, double q) {
  std::vector<double> values(static_cast<size_t>(data.rows()));
  for (int i = 0; i < data.rows(); ++i) values[static_cast<size_t>(i)] =
      data(i, col);
  std::sort(values.begin(), values.end());
  const double pos = q * (data.rows() - 1);
  const int lo = static_cast<int>(std::floor(pos));
  const int hi = std::min(lo + 1, data.rows() - 1);
  const double frac = pos - lo;
  return (1.0 - frac) * values[static_cast<size_t>(lo)] +
         frac * values[static_cast<size_t>(hi)];
}

double Clamp01(double v, double margin) {
  return std::clamp(v, margin, 1.0 - margin);
}

// ReprojectionMode::kWarmStart's safety resync cadence: every 8th Step 4
// pass runs the full global search for every row, bounding how long a row
// can track a stale local minimum. kFull is the same engine resyncing on
// every pass.
constexpr int kWarmResyncPeriod = 8;

}  // namespace

RpcLearner::RpcLearner(RpcLearnOptions options)
    : options_(std::move(options)) {}

Result<RpcFitResult> RpcLearner::Fit(const Matrix& normalized_data,
                                     const order::Orientation& alpha) const {
  if (options_.restarts < 1) {
    return Status::InvalidArgument("RpcLearner: restarts must be >= 1");
  }
  ThreadPool pool(options_.num_threads);
  if (options_.restarts == 1) {
    FitWorkspace workspace;
    return FitOnce(normalized_data, alpha, options_.seed, &pool, &workspace,
                   /*seed_control_points=*/nullptr);
  }
  // Multi-restart: independent seeds, keep the lowest J (Theorem 3's
  // minimiser is approached from several basins). With a thread budget the
  // restarts run concurrently — each already has its own RNG stream — and
  // each runs its projections serially so pool parallelism never nests;
  // without one the pool accelerates the projections inside each restart.
  // The Step 5 workspace persists across the restarts a worker runs (one
  // shared workspace when they run serially), so only the first restart
  // pays the allocation.
  std::vector<Result<RpcFitResult>> fits;
  fits.reserve(static_cast<size_t>(options_.restarts));
  for (int r = 0; r < options_.restarts; ++r) {
    fits.emplace_back(Status::Internal("restart did not run"));
  }
  if (pool.parallelism() > 1) {
    std::vector<FitWorkspace> workspaces(
        static_cast<size_t>(pool.parallelism()));
    pool.ParallelFor(
        options_.restarts, /*grain=*/1,
        [&](std::int64_t begin, std::int64_t end, int worker) {
          for (std::int64_t r = begin; r < end; ++r) {
            fits[static_cast<size_t>(r)] =
                FitOnce(normalized_data, alpha,
                        options_.seed + 7919ULL * static_cast<uint64_t>(r),
                        /*pool=*/nullptr,
                        &workspaces[static_cast<size_t>(worker)],
                        /*seed_control_points=*/nullptr);
          }
        });
  } else {
    FitWorkspace workspace;
    for (int r = 0; r < options_.restarts; ++r) {
      fits[static_cast<size_t>(r)] =
          FitOnce(normalized_data, alpha, options_.seed + 7919ULL * r, &pool,
                  &workspace, /*seed_control_points=*/nullptr);
    }
  }
  // Whole-call stage timing: summed over every restart that ran, collected
  // before the selection loop moves the winners out.
  double projection_seconds = 0.0;
  double update_seconds = 0.0;
  for (const Result<RpcFitResult>& fit : fits) {
    if (!fit.ok()) continue;
    projection_seconds += fit->projection_seconds;
    update_seconds += fit->update_seconds;
  }
  // Selection scans in restart order, so the winner (and any propagated
  // error) is independent of how the restarts were scheduled.
  Result<RpcFitResult> best = Status::Internal("no restart succeeded");
  for (int r = 0; r < options_.restarts; ++r) {
    Result<RpcFitResult>& fit = fits[static_cast<size_t>(r)];
    if (!fit.ok()) {
      if (!best.ok()) best = std::move(fit);
      continue;
    }
    if (!best.ok() || fit->final_j < best->final_j) best = std::move(fit);
  }
  if (best.ok()) {
    best->projection_seconds = projection_seconds;
    best->update_seconds = update_seconds;
  }
  return best;
}

Result<RpcFitResult> RpcLearner::Refit(
    const Matrix& normalized_data, const order::Orientation& alpha,
    const Matrix& seed_control_points) const {
  if (seed_control_points.rows() != normalized_data.cols() ||
      seed_control_points.cols() != options_.degree + 1) {
    return Status::InvalidArgument(StrFormat(
        "RpcLearner::Refit: seed control points are %d x %d, need %d x %d",
        seed_control_points.rows(), seed_control_points.cols(),
        normalized_data.cols(), options_.degree + 1));
  }
  ThreadPool pool(options_.num_threads);
  FitWorkspace workspace;
  return FitOnce(normalized_data, alpha, options_.seed, &pool, &workspace,
                 &seed_control_points);
}

Result<RpcFitResult> RpcLearner::FitOnce(const Matrix& normalized_data,
                                         const order::Orientation& alpha,
                                         uint64_t seed, ThreadPool* pool,
                                         FitWorkspace* workspace,
                                         const Matrix* seed_control_points)
    const {
  const int n = normalized_data.rows();
  const int d = normalized_data.cols();
  const int k = options_.degree;
  if (k < 1 || k > 10) {
    return Status::InvalidArgument("RpcLearner: degree must be in [1, 10]");
  }
  if (d != alpha.dimension()) {
    return Status::InvalidArgument("RpcLearner: alpha dimension mismatch");
  }
  // With end points pinned only k-1 control points are free, so k-1 rows
  // determine the fit; free end points need k+1. (The Gram matrix may be
  // rank deficient either way — Richardson tolerates that, the
  // pseudo-inverse path truncates the null space.)
  const int min_rows = options_.fix_end_points ? std::max(2, k - 1) : k + 1;
  if (n < min_rows) {
    return Status::InvalidArgument(
        StrFormat("RpcLearner: need at least %d rows for degree %d", min_rows,
                  k));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) {
      const double v = normalized_data(i, j);
      // The negated comparison also rejects NaN (all comparisons false).
      if (!(v >= -1e-9 && v <= 1.0 + 1e-9)) {
        return Status::FailedPrecondition(
            StrFormat("RpcLearner: entry (%d,%d)=%g outside [0,1]; "
                      "normalise first (Eq. 29)",
                      i, j, v));
      }
    }
  }

  // Persistent Step 5 scratch: a no-op when the workspace already has this
  // shape (every outer iteration and every restart after the first).
  workspace->Bind(n, d, k);

  // --- Step 2: initialise control points. -------------------------------
  Rng rng(seed);
  const Vector worst = alpha.WorstCorner();
  const Vector best = alpha.BestCorner();
  Matrix control(d, k + 1);
  control.SetColumn(0, worst);
  control.SetColumn(k, best);
  const double margin = std::max(options_.clamp_margin, 1e-9);
  if (seed_control_points != nullptr) {
    // Seeded refit: the previous model's control points replace the Step 2
    // initialisation. Interior points are re-clamped into the open cube
    // (a normalisation-bound remap can push them onto the margin) and the
    // end points re-pinned/clamped per the usual Proposition 1 handling.
    for (int r = 1; r < k; ++r) {
      for (int j = 0; j < d; ++j) {
        control(j, r) = Clamp01((*seed_control_points)(j, r), margin);
      }
    }
    if (!options_.fix_end_points) {
      for (int j = 0; j < d; ++j) {
        control(j, 0) = std::clamp((*seed_control_points)(j, 0), 0.0, 1.0);
        control(j, k) = std::clamp((*seed_control_points)(j, k), 0.0, 1.0);
      }
    }
  } else {
    for (int r = 1; r < k; ++r) {
      const double frac = static_cast<double>(r) / k;
      for (int j = 0; j < d; ++j) {
        double v = 0.0;
        switch (options_.init) {
          case RpcInit::kDiagonal:
            v = worst[j] + frac * (best[j] - worst[j]);
            break;
          case RpcInit::kQuantiles: {
            const double q = alpha.sign(j) > 0 ? frac : 1.0 - frac;
            v = ColumnQuantile(normalized_data, j, q);
            break;
          }
          case RpcInit::kRandomSamples:
            v = 0.0;  // filled below from whole sampled rows
            break;
        }
        control(j, r) = Clamp01(v, margin);
      }
    }
    if (options_.init == RpcInit::kRandomSamples) {
      // Draw k-1 distinct rows and order them by oriented progress so the
      // control polygon runs from worst to best.
      std::vector<int> picks;
      while (static_cast<int>(picks.size()) < k - 1) {
        const int candidate = static_cast<int>(rng.UniformInt(n));
        if (std::find(picks.begin(), picks.end(), candidate) == picks.end()) {
          picks.push_back(candidate);
        }
        if (static_cast<int>(picks.size()) == n) break;  // tiny datasets
      }
      std::sort(picks.begin(), picks.end(), [&](int a, int b) {
        double pa = 0.0, pb = 0.0;
        for (int j = 0; j < d; ++j) {
          pa += alpha.sign(j) * normalized_data(a, j);
          pb += alpha.sign(j) * normalized_data(b, j);
        }
        return pa < pb;
      });
      for (int r = 1; r < k; ++r) {
        const int row = picks[static_cast<size_t>(
            std::min<int>(r - 1, static_cast<int>(picks.size()) - 1))];
        for (int j = 0; j < d; ++j) {
          control(j, r) = Clamp01(normalized_data(row, j), margin);
        }
      }
    }
  }

  // --- Steps 3-9: alternate projection and control-point updates. -------
  RpcFitResult result{RpcCurve::Diagonal(alpha), Vector(), 0.0, 0.0, 0,
                      false, {}};
  curve::BezierCurve bezier(control);
  Vector scores;
  double j_current = std::numeric_limits<double>::infinity();
  double j_previous = std::numeric_limits<double>::infinity();
  Matrix previous_control = control;
  Vector previous_scores;

  ControlUpdateOptions update_options;
  update_options.use_pseudo_inverse_update = options_.use_pseudo_inverse_update;
  update_options.richardson_steps = options_.richardson_steps_per_iteration;
  update_options.richardson.use_preconditioner = options_.use_preconditioner;
  update_options.richardson.gamma = options_.gamma;

  double projection_seconds = 0.0;
  double update_seconds = 0.0;

  // Step 4 engine, one for both modes: kWarmStart keeps per-row state
  // (last s*, last squared distance) across outer iterations
  // and only falls back to the full global search for suspect rows and
  // periodic resyncs; kFull resyncs on every pass, i.e. re-projects every
  // row from scratch. Each projected row streams straight into the fit
  // workspace's per-segment Step 5 accumulators (fused
  // projection+accumulation), so the dataset is swept exactly once per
  // outer iteration.
  opt::IncrementalProjectorOptions incremental_options;
  incremental_options.projection = options_.projection;
  incremental_options.resync_period =
      options_.reprojection == ReprojectionMode::kFull ? 1
                                                       : kWarmResyncPeriod;
  opt::IncrementalProjector incremental;
  incremental.Bind(normalized_data, incremental_options, pool);
  incremental.SetFusedAccumulators(workspace->fused_segments(),
                                   kFitSegmentRows);

  // Are the scores in hand the full global search's projections of the
  // current bezier? True after a full pass (every kFull pass, a kWarmStart
  // resync, kGridOnly always) and tracked through a rollback, so the final
  // verification below runs only when it would measure something new.
  bool scores_are_full = false;
  bool previous_scores_full = false;

  int iter = 0;
  for (; iter < options_.max_iterations; ++iter) {
    // Step 4: projection indices s^(t) (GSS or the quintic alternative),
    // fanned out across the pool and written into the same score buffer
    // every iteration.
    const auto projection_start = std::chrono::steady_clock::now();
    incremental.ProjectInto(bezier, &scores, &j_current);
    scores_are_full = incremental.last_was_full();
    const auto projection_end = std::chrono::steady_clock::now();
    projection_seconds += SecondsBetween(projection_start, projection_end);
    if (options_.trace_id != 0) {
      obs::EmitSpan(options_.trace_id, "fit.projection",
                    ToTraceNs(projection_start), ToTraceNs(projection_end));
    }
    if (options_.record_history) result.j_history.push_back(j_current);

    if (iter > 0) {
      const double delta = j_previous - j_current;
      if (delta < 0.0) {
        // Step 6-8: J increased — keep the previous local minimum. The
        // rejected trial is dropped from the history so the recorded
        // sequence is the accepted, non-increasing one (Proposition 2).
        control = previous_control;
        scores = previous_scores;
        scores_are_full = previous_scores_full;
        j_current = j_previous;
        bezier.SetControlPoints(control);
        if (options_.record_history && !result.j_history.empty()) {
          result.j_history.pop_back();
        }
        break;
      }
      if (delta < options_.tolerance) {
        result.converged = true;
        break;
      }
    }
    j_previous = j_current;
    previous_control = control;
    previous_scores = scores;
    previous_scores_full = scores_are_full;

    // Step 5: control-point update, allocation-free in steady state. The
    // projection pass above already streamed every (s_i, x_i) into the
    // workspace's per-segment Eq. (26) accumulators (fused
    // projection+accumulation — the dataset is not re-read here); the
    // segment-ordered reduction and the Eq. (26)/(27) solve run in the
    // persistent scratch, in place on `control`.
    const auto update_start = std::chrono::steady_clock::now();
    workspace->ReduceFusedSegments();
    const Status update_status =
        workspace->UpdateControlPoints(update_options, &control);
    if (!update_status.ok()) return update_status;

    // Re-impose the Proposition 1 constraints.
    for (int j = 0; j < d; ++j) {
      for (int r = 1; r < k; ++r) {
        control(j, r) = Clamp01(control(j, r), margin);
      }
      if (options_.fix_end_points) {
        control(j, 0) = worst[j];
        control(j, k) = best[j];
      } else {
        control(j, 0) = std::clamp(control(j, 0), 0.0, 1.0);
        control(j, k) = std::clamp(control(j, k), 0.0, 1.0);
      }
    }
    bezier.SetControlPoints(control);
    const auto update_end = std::chrono::steady_clock::now();
    update_seconds += SecondsBetween(update_start, update_end);
    if (options_.trace_id != 0) {
      obs::EmitSpan(options_.trace_id, "fit.update", ToTraceNs(update_start),
                    ToTraceNs(update_end));
    }
  }

  // The loop exhausting max_iterations leaves the last Step 5 update
  // unvetted: `scores`/`j_current` describe the pre-update curve while
  // `bezier` is post-update. Apply the Step 6-8 acceptance to that final
  // update — keep it only if it did not increase J — so the returned curve,
  // scores and J are consistent and the accepted-J sequence stays
  // non-increasing (Proposition 2). Under kWarmStart the pre-update J may
  // be warm-measured, i.e. an upper bound on the full-search J within the
  // certified-fallback slack, so the acceptance (like the in-loop delta
  // test) is exact only up to that slack.
  if (iter == options_.max_iterations && scores.size() != 0) {
    double j_final = 0.0;
    const auto final_start = std::chrono::steady_clock::now();
    Vector final_scores = opt::ProjectRowsBatch(
        bezier, normalized_data, options_.projection, pool, &j_final);
    const auto final_end = std::chrono::steady_clock::now();
    projection_seconds += SecondsBetween(final_start, final_end);
    if (options_.trace_id != 0) {
      obs::EmitSpan(options_.trace_id, "fit.convergence",
                    ToTraceNs(final_start), ToTraceNs(final_end));
    }
    if (j_final <= j_current) {
      scores = std::move(final_scores);
      j_current = j_final;
      scores_are_full = true;
    } else {
      control = previous_control;
      bezier.SetControlPoints(control);
      // scores/j_current already describe this restored curve;
      // scores_are_full keeps whatever quality the last loop pass had.
    }
  }

  // Warm-started fits re-measure the accepted curve with one final full
  // projection, so the reported scores and J come from the same global
  // search as ReprojectionMode::kFull whatever mix of local refinements and
  // fallbacks the trajectory used — skipped when the scores in hand already
  // are that (always under kFull: no redundant O(n) pass). Also covers
  // max_iterations == 0, where the loop never projected at all.
  if (!scores_are_full || scores.size() == 0) {
    const auto final_start = std::chrono::steady_clock::now();
    scores = opt::ProjectRowsBatch(bezier, normalized_data,
                                   options_.projection, pool, &j_current);
    const auto final_end = std::chrono::steady_clock::now();
    projection_seconds += SecondsBetween(final_start, final_end);
    if (options_.trace_id != 0) {
      obs::EmitSpan(options_.trace_id, "fit.convergence",
                    ToTraceNs(final_start), ToTraceNs(final_end));
    }
  }

  Result<RpcCurve> curve_result =
      options_.fix_end_points
          ? RpcCurve::FromControlPoints(control, alpha,
                                        /*corner_tol=*/1e-6)
          : RpcCurve::FromControlPointsUnchecked(control, alpha);
  if (!curve_result.ok()) return curve_result.status();

  result.curve = std::move(curve_result).value();
  result.scores = scores;
  result.final_j = j_current;
  result.explained_variance =
      1.0 - j_current /
                std::max(linalg::TotalScatter(normalized_data), 1e-300);
  result.iterations = iter;
  result.projection_seconds = projection_seconds;
  result.update_seconds = update_seconds;
  return result;
}

Vector RescaleToUnit(const Vector& scores) {
  if (scores.size() == 0) return scores;
  double lo = scores[0];
  double hi = scores[0];
  for (int i = 1; i < scores.size(); ++i) {
    lo = std::min(lo, scores[i]);
    hi = std::max(hi, scores[i]);
  }
  Vector rescaled(scores.size());
  const double range = hi - lo;
  for (int i = 0; i < scores.size(); ++i) {
    rescaled[i] = range > 0.0 ? (scores[i] - lo) / range : 0.5;
  }
  return rescaled;
}

}  // namespace rpc::core
