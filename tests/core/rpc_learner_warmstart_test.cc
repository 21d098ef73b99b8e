// Equivalence of ReprojectionMode::kWarmStart with kFull on the paper's
// synthetic fixtures: same final J within the learner tolerance and the
// identical ranking order, for every projection method and 1/2/8 threads —
// the acceptance contract of the warm-started incremental re-projection
// engine — plus the invariant both modes share: the reported scores and J
// are the exact re-projection of the returned curve.
#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rpc_learner.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "linalg/matrix.h"
#include "opt/batch_projection.h"
#include "order/orientation.h"
#include "rank/ranking_list.h"

namespace rpc::core {
namespace {

using linalg::Matrix;
using linalg::Vector;
using order::Orientation;

std::vector<int> RankingOrder(const Vector& scores) {
  return rank::RankingList(scores).OrderedIndices();
}

Matrix FixtureData(const Orientation& alpha, int n, uint64_t seed) {
  const data::LatentCurveSample sample = data::GenerateLatentCurveData(
      alpha, {.n = n, .noise_sigma = 0.04, .control_margin = 0.1,
              .seed = seed});
  const auto norm = data::Normalizer::Fit(sample.data);
  EXPECT_TRUE(norm.ok());
  return norm->Transform(sample.data);
}

TEST(RpcLearnerWarmStartTest, MatchesFullFitAcrossMethodsAndThreads) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, +1});
  const Matrix normalized = FixtureData(alpha, 240, 51);
  for (opt::ProjectionMethod method :
       {opt::ProjectionMethod::kGoldenSection,
        opt::ProjectionMethod::kQuinticRoots,
        opt::ProjectionMethod::kNewton}) {
    RpcLearnOptions options;
    options.projection.method = method;
    options.seed = 99;

    options.reprojection = ReprojectionMode::kFull;
    const auto full = RpcLearner(options).Fit(normalized, alpha);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    const std::vector<int> full_order = RankingOrder(full->scores);

    for (int threads : {1, 2, 8}) {
      options.reprojection = ReprojectionMode::kWarmStart;
      options.num_threads = threads;
      const auto warm = RpcLearner(options).Fit(normalized, alpha);
      ASSERT_TRUE(warm.ok()) << warm.status().ToString();
      // Same minimum: J within the learner's own convergence tolerance
      // (scaled to J's magnitude for safety; both fits refine s to 1e-10).
      EXPECT_NEAR(warm->final_j, full->final_j,
                  std::max(options.tolerance,
                           1e-6 * std::fabs(full->final_j)))
          << "method " << static_cast<int>(method) << " threads " << threads;
      EXPECT_EQ(RankingOrder(warm->scores), full_order)
          << "method " << static_cast<int>(method) << " threads " << threads;
    }
  }
}

// Warm-start fits are themselves bit-identical across thread counts (the
// incremental engine preserves the batch engine's determinism contract).
TEST(RpcLearnerWarmStartTest, WarmFitBitIdenticalAcrossThreadCounts) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1});
  const Matrix normalized = FixtureData(alpha, 180, 61);
  RpcLearnOptions options;
  options.reprojection = ReprojectionMode::kWarmStart;
  options.seed = 7;

  options.num_threads = 1;
  const auto serial = RpcLearner(options).Fit(normalized, alpha);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const auto parallel = RpcLearner(options).Fit(normalized, alpha);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->final_j, serial->final_j);
    ASSERT_EQ(parallel->scores.size(), serial->scores.size());
    for (int i = 0; i < serial->scores.size(); ++i) {
      EXPECT_EQ(parallel->scores[i], serial->scores[i])
          << "threads=" << threads << " row " << i;
    }
    EXPECT_EQ(parallel->iterations, serial->iterations);
  }
}

// Warm start composes with multi-restart fits (each restart owns its own
// incremental projector state).
TEST(RpcLearnerWarmStartTest, WarmStartWithRestartsMatchesFull) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix normalized = FixtureData(alpha, 150, 71);
  RpcLearnOptions options;
  options.restarts = 3;
  options.seed = 31;

  options.reprojection = ReprojectionMode::kFull;
  const auto full = RpcLearner(options).Fit(normalized, alpha);
  ASSERT_TRUE(full.ok());
  options.reprojection = ReprojectionMode::kWarmStart;
  const auto warm = RpcLearner(options).Fit(normalized, alpha);
  ASSERT_TRUE(warm.ok());
  EXPECT_NEAR(warm->final_j, full->final_j,
              std::max(options.tolerance, 1e-6 * std::fabs(full->final_j)));
  EXPECT_EQ(RankingOrder(warm->scores), RankingOrder(full->scores));
}

// Monotonicity and score bounds survive the warm-start path (Proposition 1
// invariants are properties of the learned curve, not of how Step 4 is
// scheduled).
TEST(RpcLearnerWarmStartTest, CoreGuaranteesHoldUnderWarmStart) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1, -1});
  const Matrix normalized = FixtureData(alpha, 200, 81);
  RpcLearnOptions options;
  options.reprojection = ReprojectionMode::kWarmStart;
  const auto fit = RpcLearner(options).Fit(normalized, alpha);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->curve.CheckMonotonicity().strictly_monotone);
  for (int i = 0; i < fit->scores.size(); ++i) {
    EXPECT_GE(fit->scores[i], 0.0);
    EXPECT_LE(fit->scores[i], 1.0);
  }
  // The recorded (accepted) J sequence is non-increasing, warm or not.
  for (size_t t = 1; t < fit->j_history.size(); ++t) {
    EXPECT_LE(fit->j_history[t], fit->j_history[t - 1] + 1e-12) << "t=" << t;
  }
}

// The reported fit is exactly what re-projecting the training rows onto
// the returned curve gives: fit.scores and fit.final_j equal, bit for bit,
// the batch engine's scores and J on fit.curve — in both reprojection
// modes, for every thread count and restart count, and on the
// iteration-cap path whose last update is vetted after the loop.
TEST(RpcLearnerWarmStartTest, ReportedFitEqualsReprojectionOfReturnedCurve) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1, +1});
  const Matrix normalized = FixtureData(alpha, 240, 91);
  for (ReprojectionMode mode :
       {ReprojectionMode::kFull, ReprojectionMode::kWarmStart}) {
    for (int max_iterations : {300, 2}) {
      for (int restarts : {1, 3}) {
        for (int threads : {1, 2, 8}) {
          SCOPED_TRACE(testing::Message()
                       << "mode " << static_cast<int>(mode) << " max_iter "
                       << max_iterations << " restarts " << restarts
                       << " threads " << threads);
          RpcLearnOptions options;
          options.reprojection = mode;
          options.max_iterations = max_iterations;
          options.restarts = restarts;
          options.num_threads = threads;
          options.seed = 17;
          const auto fit = RpcLearner(options).Fit(normalized, alpha);
          ASSERT_TRUE(fit.ok()) << fit.status().ToString();
          if (max_iterations == 2) {
            EXPECT_EQ(fit->iterations, 2);
          }
          double j = 0.0;
          const Vector rescored = opt::ProjectRowsBatch(
              fit->curve.bezier(), normalized, options.projection, nullptr,
              &j);
          EXPECT_EQ(fit->final_j, j);
          ASSERT_EQ(fit->scores.size(), rescored.size());
          for (int i = 0; i < rescored.size(); ++i) {
            ASSERT_EQ(fit->scores[i], rescored[i]) << "row " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace rpc::core
