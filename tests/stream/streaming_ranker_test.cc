// stream::StreamingRanker: the online path's correctness contract. The
// centrepiece is the acceptance criterion of the streaming tier — after any
// sequence of appends/retirements and refreshes, a snapshot must score
// bit-identically to a from-scratch core::RpcLearner::Refit warm-seeded
// from the same state on the same row set, and scores served through
// serve::RankingService must match in-process PortableRpcModel scoring
// exactly across versioned copy-on-write swaps.
#include "stream/streaming_ranker.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/rpc_learner.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "opt/curve_projection.h"
#include "order/orientation.h"
#include "serve/ranking_service.h"

namespace rpc::stream {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;

Matrix RawFixture(const Orientation& alpha, int n, uint64_t seed) {
  return data::GenerateLatentCurveData(
             alpha, {.n = n, .noise_sigma = 0.05, .control_margin = 0.1,
                     .seed = seed})
      .data;
}

Vector RandomRowNear(const Matrix& rows, uint64_t seed, double scale) {
  Rng rng(seed);
  const int base = static_cast<int>(rng.UniformInt(rows.rows()));
  Vector row = rows.Row(base);
  for (int j = 0; j < row.size(); ++j) {
    row[j] += rng.Uniform(-scale, scale);
  }
  return row;
}

StreamingRankerOptions QuietOptions() {
  StreamingRankerOptions options;
  // Tests drive refreshes explicitly (ForceRefresh) unless they are about
  // the policy itself.
  options.drift.refit_on_row_delta = 0;
  options.drift.refit_on_normalizer_drift = 0.0;
  options.drift.refit_period_events = 0;
  options.learner.seed = 42;
  return options;
}

TEST(StreamingRankerTest, StartPublishesVersionOneAndServesBitIdentically) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix raw = RawFixture(alpha, 120, 5);
  serve::RankingService service;
  StreamingRanker ranker(&service, "live", QuietOptions());
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  EXPECT_TRUE(service.HasDataset("live"));
  const auto version = service.DatasetVersion("live");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 1u);

  const StreamingRanker::Snapshot snap = ranker.snapshot();
  EXPECT_EQ(snap.version, 1u);
  ASSERT_EQ(snap.scores.size(), raw.rows());

  // Served scores == the portable model's own scoring, bit for bit.
  const auto batch = service.Query("live", raw);
  ASSERT_TRUE(batch.ok());
  for (int i = 0; i < raw.rows(); ++i) {
    const auto expected = snap.model.Score(raw.Row(i));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(batch->scores[i], *expected) << "row " << i;
  }
}

// The streaming machinery adds no arithmetic. A snapshot taken before
// ForceRefresh carries the exact refresh seed (live bounds, control
// points); replaying RpcLearner::Refit by hand on that state must
// reproduce the post-refresh snapshot bit for bit — scores, control
// points, J.
TEST(StreamingRankerTest, RefreshBitIdenticalToHandRolledWarmRefit) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1, +1});
  const Matrix raw = RawFixture(alpha, 90, 9);
  const StreamingRankerOptions options = QuietOptions();
  StreamingRanker ranker(nullptr, "live", options);
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  // The refresh runs the cold fit's learner configuration, Step 4 engine
  // included: only the restart count, the iteration cap and the J history
  // are its own.
  core::RpcLearnOptions refresh = ranker.warm_options();
  EXPECT_EQ(refresh.restarts, 1);
  EXPECT_EQ(refresh.max_iterations, options.warm_refit_max_iterations);
  EXPECT_FALSE(refresh.record_history);
  refresh.restarts = options.learner.restarts;
  refresh.max_iterations = options.learner.max_iterations;
  refresh.record_history = options.learner.record_history;
  EXPECT_TRUE(refresh == options.learner);

  // Track every row by id, exactly as the ranker stores them.
  std::unordered_map<std::int64_t, Vector> rows_by_id;
  for (int i = 0; i < raw.rows(); ++i) rows_by_id[i] = raw.Row(i);

  for (int a = 0; a < 25; ++a) {
    const Vector row = RandomRowNear(raw, 100 + a, /*scale=*/0.3);
    const auto id = ranker.Append(row);
    ASSERT_TRUE(id.ok());
    rows_by_id[*id] = row;
  }
  ASSERT_TRUE(ranker.Retire(3).ok());
  ASSERT_TRUE(ranker.Retire(77).ok());
  rows_by_id.erase(3);
  rows_by_id.erase(77);
  ASSERT_TRUE(ranker.Flush().ok());

  const StreamingRanker::Snapshot before = ranker.snapshot();
  ASSERT_EQ(before.row_ids.size(), rows_by_id.size());

  ASSERT_TRUE(ranker.ForceRefresh().ok());
  const StreamingRanker::Snapshot after = ranker.snapshot();
  EXPECT_EQ(after.version, before.version + 1);

  // Hand-rolled refit from the identical state through the same public
  // pieces the ranker composes.
  Matrix rows(static_cast<int>(before.row_ids.size()), raw.cols());
  for (size_t i = 0; i < before.row_ids.size(); ++i) {
    const auto it = rows_by_id.find(before.row_ids[i]);
    ASSERT_NE(it, rows_by_id.end());
    rows.SetRow(static_cast<int>(i), it->second);
  }
  const auto normalizer =
      data::Normalizer::FromBounds(before.live_mins, before.live_maxs);
  ASSERT_TRUE(normalizer.ok());
  const Matrix seed = RemapControlPoints(
      before.model.control_points, before.model.mins, before.model.maxs,
      before.live_mins, before.live_maxs);
  const core::RpcLearner learner(ranker.warm_options());
  const auto refit =
      learner.Refit(normalizer->Transform(rows), alpha, seed);
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();

  ASSERT_EQ(after.scores.size(), refit->scores.size());
  for (int i = 0; i < refit->scores.size(); ++i) {
    EXPECT_EQ(after.scores[i], refit->scores[i]) << "row " << i;
  }
  const Matrix& expected_control = refit->curve.control_points();
  for (int j = 0; j < expected_control.rows(); ++j) {
    for (int r = 0; r < expected_control.cols(); ++r) {
      EXPECT_EQ(after.model.control_points(j, r), expected_control(j, r));
    }
  }
  // The refreshed model's bounds are the live bounds the refresh froze.
  for (int j = 0; j < raw.cols(); ++j) {
    EXPECT_EQ(after.model.mins[j], before.live_mins[j]);
    EXPECT_EQ(after.model.maxs[j], before.live_maxs[j]);
  }
}

// Served scores stay bit-identical to in-process scoring across versioned
// swaps: every published version serves exactly its own snapshot.
TEST(StreamingRankerTest, ServedScoresTrackVersionedSwapsExactly) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix raw = RawFixture(alpha, 80, 13);
  serve::RankingService service;
  StreamingRanker ranker(&service, "live", QuietOptions());
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  const Matrix probe = RawFixture(alpha, 40, 14);
  for (int round = 0; round < 3; ++round) {
    for (int a = 0; a < 10; ++a) {
      ASSERT_TRUE(
          ranker.Append(RandomRowNear(raw, 1000 + 100 * round + a, 0.2))
              .ok());
    }
    ASSERT_TRUE(ranker.ForceRefresh().ok());
    const StreamingRanker::Snapshot snap = ranker.snapshot();
    const auto version = service.DatasetVersion("live");
    ASSERT_TRUE(version.ok());
    EXPECT_EQ(*version, snap.version);
    EXPECT_EQ(snap.version, static_cast<std::uint64_t>(round) + 2);

    const auto batch = service.Query("live", probe);
    ASSERT_TRUE(batch.ok());
    for (int i = 0; i < probe.rows(); ++i) {
      const auto expected = snap.model.Score(probe.Row(i));
      ASSERT_TRUE(expected.ok());
      EXPECT_EQ(batch->scores[i], *expected)
          << "round " << round << " row " << i;
    }
  }
}

TEST(StreamingRankerTest, RowDeltaPolicyRefreshesInBackground) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, +1});
  const Matrix raw = RawFixture(alpha, 100, 21);
  serve::RankingService service;
  StreamingRankerOptions options = QuietOptions();
  options.drift.refit_on_row_delta = 8;
  StreamingRanker ranker(&service, "live", options);
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  for (int a = 0; a < 20; ++a) {
    ASSERT_TRUE(ranker.Append(RandomRowNear(raw, 300 + a, 0.2)).ok());
  }
  ASSERT_TRUE(ranker.Flush().ok());

  const StreamStats stats = ranker.stats();
  // 20 events at an 8-event cadence: at least two refreshes fired (the
  // second batch may or may not have landed depending on in-flight
  // overlap, so >= 2 is the deterministic floor).
  EXPECT_GE(stats.refreshes, 2);
  EXPECT_EQ(stats.appended, 20);
  EXPECT_EQ(stats.rows, 120);
  const auto version = service.DatasetVersion("live");
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, ranker.snapshot().version);
}

TEST(StreamingRankerTest, NormalizerDriftPolicyRebasesBounds) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix raw = RawFixture(alpha, 60, 33);
  StreamingRankerOptions options = QuietOptions();
  options.drift.refit_on_normalizer_drift = 0.05;
  StreamingRanker ranker(nullptr, "live", options);
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());
  const StreamingRanker::Snapshot before = ranker.snapshot();

  // A row far outside the fitted bounds stretches the live range well past
  // the 5% drift threshold.
  Vector outlier(2);
  for (int j = 0; j < 2; ++j) {
    outlier[j] =
        before.model.maxs[j] + 0.5 * (before.model.maxs[j] -
                                      before.model.mins[j]);
  }
  ASSERT_TRUE(ranker.Append(outlier).ok());
  ASSERT_TRUE(ranker.Flush().ok());

  const StreamingRanker::Snapshot after = ranker.snapshot();
  EXPECT_GT(after.version, before.version);
  for (int j = 0; j < 2; ++j) {
    EXPECT_EQ(after.model.maxs[j], outlier[j]) << "attribute " << j;
  }
  // The refreshed scores still live in [0, 1] and the outlier ranks best
  // (it dominates every other row in an all-benefit orientation).
  int best = 0;
  for (int i = 1; i < after.scores.size(); ++i) {
    if (after.scores[i] > after.scores[best]) best = i;
  }
  EXPECT_EQ(after.row_ids[static_cast<size_t>(best)], 60);
}

TEST(StreamingRankerTest, RetireMaintainsStoreAndCountsMisses) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1});
  const Matrix raw = RawFixture(alpha, 50, 41);
  StreamingRanker ranker(nullptr, "live", QuietOptions());
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  ASSERT_TRUE(ranker.Retire(7).ok());
  ASSERT_TRUE(ranker.Retire(7).ok());     // second retirement misses
  ASSERT_TRUE(ranker.Retire(9999).ok());  // unknown id misses
  ASSERT_TRUE(ranker.Flush().ok());

  const StreamStats stats = ranker.stats();
  EXPECT_EQ(stats.retired, 1);
  EXPECT_EQ(stats.retire_misses, 2);
  EXPECT_EQ(stats.rows, 49);
  const StreamingRanker::Snapshot snap = ranker.snapshot();
  for (const std::int64_t id : snap.row_ids) EXPECT_NE(id, 7);
  // The store still refreshes fine after retirement.
  ASSERT_TRUE(ranker.ForceRefresh().ok());
  EXPECT_EQ(ranker.snapshot().scores.size(), 49);
}

TEST(StreamingRankerTest, LifecycleErrorsAreStatusesNotCrashes) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix raw = RawFixture(alpha, 40, 51);
  StreamingRanker ranker(nullptr, "live", QuietOptions());

  Vector row(2, 0.5);
  EXPECT_FALSE(ranker.Append(row).ok());       // not started
  EXPECT_FALSE(ranker.ForceRefresh().ok());    // not started
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());
  EXPECT_FALSE(ranker.Start(raw, alpha).ok()); // double start

  Vector bad(3, 0.5);
  EXPECT_FALSE(ranker.Append(bad).ok());       // dimension mismatch

  ranker.Stop();
  EXPECT_FALSE(ranker.Append(row).ok());       // stopped
  EXPECT_FALSE(ranker.Retire(0).ok());
  ranker.Stop();                               // idempotent
}

// Every publish site counts a serving-tier rejection, Start's included.
TEST(StreamingRankerTest, StartCountsItsPublishFailure) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix raw = RawFixture(alpha, 40, 53);
  serve::RankingService service;
  // The service refuses an empty dataset id.
  StreamingRanker ranker(&service, "", QuietOptions());
  EXPECT_EQ(ranker.Start(raw, alpha).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ranker.stats().publish_failures, 1);
}

// A job that ends without adopting a model must still re-check the policy.
// The cold fit (8 restarts over 2,000 rows: tens of milliseconds) outlasts
// the appends queued right behind its trigger, so the row-delta policy
// fires while the slot is held; once the cold fit is rejected, nothing else
// arrives to act on it unless the finishing job does.
TEST(StreamingRankerTest, RejectedColdRefitRechecksThePolicy) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1, +1});
  const Matrix raw = RawFixture(alpha, 2000, 1);
  constexpr int kColdPeriod = 6;
  constexpr int kRowDelta = 10;  // fires before a second cold refit could
  StreamingRankerOptions options = QuietOptions();
  options.num_threads = 2;
  options.learner.restarts = 8;
  options.drift.cold_refit_period_events = kColdPeriod;
  options.drift.refit_on_row_delta = kRowDelta;
  StreamingRanker ranker(nullptr, "live", options);
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  for (int a = 0; a < kRowDelta; ++a) {
    ASSERT_TRUE(ranker.Append(raw.Row(a)).ok());
  }
  ASSERT_TRUE(ranker.Flush().ok());

  const StreamStats stats = ranker.stats();
  ASSERT_EQ(stats.cold_rejected, 1);  // the fixture's cold fit loses on J
  EXPECT_EQ(stats.cold_refits, 0);
  EXPECT_EQ(stats.refreshes, 1);
  EXPECT_EQ(stats.version, 2u);
}

TEST(StreamingRankerTest, StopDrainsAdmittedEvents) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix raw = RawFixture(alpha, 40, 61);
  StreamingRanker ranker(nullptr, "live", QuietOptions());
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());
  for (int a = 0; a < 30; ++a) {
    ASSERT_TRUE(ranker.Append(RandomRowNear(raw, 700 + a, 0.1)).ok());
  }
  ranker.Stop();  // must process all 30 admitted appends before joining
  EXPECT_EQ(ranker.stats().appended, 30);
  EXPECT_EQ(ranker.stats().rows, 70);
}

// Runs one background cold refit in fully serial mode and replays its
// publish-if-better decision by hand: a full Fit on the job's normalized
// rows against the live model's J, summed by a per-row Project loop. The
// ranker must take the same decision (adopt: publish the cold fit's model
// and scores; reject: keep the incumbent). `scale` is how far the appended
// rows stray from the fitted data. Sets *adopted to the decision.
void ExpectColdRefitDecisionMatchesHandRolled(std::uint64_t seed, double scale,
                                              bool* adopted) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1, +1});
  const Matrix raw = RawFixture(alpha, 60, seed);
  constexpr int kColdPeriod = 12;
  StreamingRankerOptions options = QuietOptions();
  options.num_threads = 1;
  options.drift.cold_refit_period_events = kColdPeriod;
  StreamingRanker ranker(nullptr, "live", options);
  ASSERT_TRUE(ranker.Start(raw, alpha).ok());

  std::unordered_map<std::int64_t, Vector> rows_by_id;
  for (int i = 0; i < raw.rows(); ++i) rows_by_id[i] = raw.Row(i);
  for (int a = 0; a + 1 < kColdPeriod; ++a) {
    const Vector row = RandomRowNear(raw, seed * 100 + a, scale);
    const auto id = ranker.Append(row);
    ASSERT_TRUE(id.ok());
    rows_by_id[*id] = row;
  }
  const StreamingRanker::Snapshot before = ranker.snapshot();
  ASSERT_EQ(ranker.stats().cold_refits + ranker.stats().cold_rejected, 0);
  // The period's last event fires the cold refit. A copy of a fitted row
  // leaves the live bounds as `before` recorded them.
  const auto last_id = ranker.Append(raw.Row(0));
  ASSERT_TRUE(last_id.ok());
  rows_by_id[*last_id] = raw.Row(0);
  ASSERT_TRUE(ranker.Flush().ok());

  std::vector<std::int64_t> row_ids = before.row_ids;
  row_ids.push_back(*last_id);
  Matrix rows(static_cast<int>(row_ids.size()), raw.cols());
  for (size_t i = 0; i < row_ids.size(); ++i) {
    rows.SetRow(static_cast<int>(i), rows_by_id.at(row_ids[i]));
  }
  const auto normalizer =
      data::Normalizer::FromBounds(before.live_mins, before.live_maxs);
  ASSERT_TRUE(normalizer.ok());
  const Matrix normalized = normalizer->Transform(rows);
  const auto fit = core::RpcLearner(options.learner).Fit(normalized, alpha);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  curve::BezierCurve live;
  live.SetControlPoints(RemapControlPoints(
      before.model.control_points, before.model.mins, before.model.maxs,
      before.live_mins, before.live_maxs));
  opt::ProjectionWorkspace workspace;
  workspace.Bind(live, options.learner.projection);
  double live_j = 0.0;
  for (int i = 0; i < normalized.rows(); ++i) {
    live_j += workspace.Project(normalized.RowPtr(i)).squared_distance;
  }
  *adopted = fit->final_j < live_j;

  const StreamStats stats = ranker.stats();
  EXPECT_EQ(stats.cold_refits, *adopted ? 1 : 0) << "seed " << seed;
  EXPECT_EQ(stats.cold_rejected, *adopted ? 0 : 1) << "seed " << seed;
  const StreamingRanker::Snapshot after = ranker.snapshot();
  EXPECT_EQ(after.version, before.version + (*adopted ? 1 : 0));
  const Matrix& expected_control = *adopted ? fit->curve.control_points()
                                            : before.model.control_points;
  for (int j = 0; j < expected_control.rows(); ++j) {
    for (int r = 0; r < expected_control.cols(); ++r) {
      EXPECT_EQ(after.model.control_points(j, r), expected_control(j, r))
          << "seed " << seed;
    }
  }
  if (*adopted) {
    ASSERT_EQ(after.scores.size(), fit->scores.size());
    for (int i = 0; i < fit->scores.size(); ++i) {
      EXPECT_EQ(after.scores[i], fit->scores[i]) << "seed " << seed;
    }
  }
}

// The cold refit's incumbent check sums the live model's J through the
// block projection route; its adopt/reject decisions must be those of the
// per-row sum, on fixtures that reach both outcomes.
TEST(StreamingRankerTest, ColdRefitDecisionsMatchPerRowIncumbentJ) {
  int adopted_runs = 0;
  int rejected_runs = 0;
  for (std::uint64_t seed : {71, 72, 73, 74}) {
    for (double scale : {0.0, 0.3}) {
      bool adopted = false;
      ExpectColdRefitDecisionMatchesHandRolled(seed, scale, &adopted);
      if (HasFatalFailure()) return;
      ++(adopted ? adopted_runs : rejected_runs);
    }
  }
  EXPECT_GT(adopted_runs, 0);
  EXPECT_GT(rejected_runs, 0);
}

TEST(RemapControlPointsTest, RemapPreservesRawSpaceGeometry) {
  Matrix control{{0.0, 0.25, 0.75, 1.0}, {0.0, 0.4, 0.6, 1.0}};
  Vector old_mins{10.0, -2.0}, old_maxs{20.0, 2.0};
  Vector new_mins{8.0, -2.0}, new_maxs{26.0, 3.0};
  const Matrix remapped =
      RemapControlPoints(control, old_mins, old_maxs, new_mins, new_maxs);
  for (int r = 0; r < 4; ++r) {
    for (int j = 0; j < 2; ++j) {
      const double raw =
          old_mins[j] + control(j, r) * (old_maxs[j] - old_mins[j]);
      const double raw_back =
          new_mins[j] + remapped(j, r) * (new_maxs[j] - new_mins[j]);
      EXPECT_NEAR(raw_back, raw, 1e-12);
    }
  }
}

}  // namespace
}  // namespace rpc::stream
