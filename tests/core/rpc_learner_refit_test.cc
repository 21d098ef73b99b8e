// RpcLearner::Refit — the streaming tier's refresh primitive: seeded from
// a previous fit's control points alone, it must converge to the same
// optimum as a cold fit (measured by the same full projection), be
// deterministic across thread counts, and cost markedly fewer outer
// iterations than the cold fit it replaces.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/rpc_learner.h"
#include "data/generators.h"
#include "data/normalizer.h"
#include "linalg/matrix.h"
#include "order/orientation.h"
#include "rank/ranking_list.h"

namespace rpc::core {
namespace {

using linalg::Matrix;
using order::Orientation;

Matrix FixtureData(const Orientation& alpha, int n, uint64_t seed) {
  const data::LatentCurveSample sample = data::GenerateLatentCurveData(
      alpha, {.n = n, .noise_sigma = 0.04, .control_margin = 0.1,
              .seed = seed});
  const auto norm = data::Normalizer::Fit(sample.data);
  EXPECT_TRUE(norm.ok());
  return norm->Transform(sample.data);
}

// The streaming refresh's configuration: the default (kFull) engine.
RpcLearnOptions RefitOptions() {
  RpcLearnOptions options;
  options.seed = 17;
  return options;
}

TEST(RpcLearnerRefitTest, SeededRefitReconvergesToTheColdOptimum) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1, -1});
  const Matrix normalized = FixtureData(alpha, 200, 91);
  const RpcLearner learner(RefitOptions());
  const auto cold = learner.Fit(normalized, alpha);
  ASSERT_TRUE(cold.ok());

  const auto refit =
      learner.Refit(normalized, alpha, cold->curve.control_points());
  ASSERT_TRUE(refit.ok()) << refit.status().ToString();

  // Restarting at the optimum: J cannot get worse (same final full
  // projection measures both), the ranking is unchanged, and convergence
  // is near-immediate.
  EXPECT_LE(refit->final_j, cold->final_j + 1e-9);
  EXPECT_EQ(rank::RankingList(refit->scores).OrderedIndices(),
            rank::RankingList(cold->scores).OrderedIndices());
  EXPECT_LE(refit->iterations, 3);
  EXPECT_LT(refit->iterations, cold->iterations);
}

TEST(RpcLearnerRefitTest, RefitBitIdenticalAcrossThreadCounts) {
  const Orientation alpha = *Orientation::FromSigns({+1, -1});
  const Matrix normalized = FixtureData(alpha, 160, 93);
  RpcLearnOptions options = RefitOptions();
  const auto cold = RpcLearner(options).Fit(normalized, alpha);
  ASSERT_TRUE(cold.ok());

  Matrix seed = cold->curve.control_points();
  // Perturb the seed slightly so the refit has real work to do.
  for (int j = 0; j < seed.rows(); ++j) {
    seed(j, 1) = std::min(0.95, seed(j, 1) + 0.02);
  }

  options.num_threads = 1;
  const auto serial = RpcLearner(options).Refit(normalized, alpha, seed);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const auto parallel = RpcLearner(options).Refit(normalized, alpha, seed);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel->final_j, serial->final_j) << "threads " << threads;
    ASSERT_EQ(parallel->scores.size(), serial->scores.size());
    for (int i = 0; i < serial->scores.size(); ++i) {
      EXPECT_EQ(parallel->scores[i], serial->scores[i])
          << "threads " << threads << " row " << i;
    }
    EXPECT_EQ(parallel->iterations, serial->iterations);
  }
}

// Refit runs under whatever Step 4 mode the options name; the warm-started
// engine must reconverge from the optimum just the same.
TEST(RpcLearnerRefitTest, RefitUnderWarmStartReprojectionStillWorks) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix normalized = FixtureData(alpha, 100, 97);
  RpcLearnOptions options;
  options.reprojection = ReprojectionMode::kWarmStart;
  options.seed = 29;
  const RpcLearner learner(options);
  const auto cold = learner.Fit(normalized, alpha);
  ASSERT_TRUE(cold.ok());
  const auto refit =
      learner.Refit(normalized, alpha, cold->curve.control_points());
  ASSERT_TRUE(refit.ok());
  EXPECT_LE(refit->final_j, cold->final_j + 1e-9);
}

TEST(RpcLearnerRefitTest, RejectsMalformedSeeds) {
  const Orientation alpha = *Orientation::FromSigns({+1, +1});
  const Matrix normalized = FixtureData(alpha, 60, 99);
  const RpcLearner learner(RefitOptions());

  EXPECT_FALSE(learner.Refit(normalized, alpha, Matrix(3, 4)).ok());  // d
  EXPECT_FALSE(learner.Refit(normalized, alpha, Matrix(2, 3)).ok());  // k+1
}

}  // namespace
}  // namespace rpc::core
