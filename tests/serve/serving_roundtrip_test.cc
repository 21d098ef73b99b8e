// model_io round-trip through the serving path: fit -> ToPortableModel ->
// SaveModel -> RegisterDatasetFromFile -> Query must reproduce the
// in-process RpcRanker bit for bit (the text format stores %.17g, which is
// exact for doubles, and the serving hot loop runs the same normalise +
// project arithmetic as RpcRanker::Score).
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/model_io.h"
#include "core/rpc_ranker.h"
#include "data/generators.h"
#include "rank/ranking_list.h"
#include "serve/ranking_service.h"

namespace rpc::serve {
namespace {

using linalg::Matrix;
using linalg::Vector;

TEST(ServingRoundTripTest, ServedScoresBitIdenticalToRpcRanker) {
  const data::Dataset ds = data::GenerateCountryData(60, 3, false);
  const auto alpha = order::Orientation::FromSigns({1, 1, -1, -1});
  const auto ranker = core::RpcRanker::Fit(ds.values(), *alpha);
  ASSERT_TRUE(ranker.ok()) << ranker.status().ToString();

  const std::string path = testing::TempDir() + "/serving_roundtrip_model.txt";
  ASSERT_TRUE(core::SaveModel(ranker->ToPortableModel(), path).ok());

  const Matrix& rows = ds.values();
  const Vector expected = ranker->ScoreRows(rows);
  const rank::RankingList expected_list(expected, /*higher_is_better=*/true);

  for (const int threads : {1, 2, 8}) {
    RankingService::Options options;
    options.num_threads = threads;
    options.segment_rows = 16;  // force multi-segment execution
    RankingService service(options);
    ASSERT_TRUE(service.RegisterDatasetFromFile("countries", path).ok());

    // Route through the unified Query entry point with a generous deadline:
    // QoS bookkeeping must never perturb the arithmetic.
    QueryOptions qopts;
    qopts.deadline = QueryDeadline(std::chrono::minutes(5));
    qopts.priority = QueryPriority::kInteractive;
    const auto batch = service.Query("countries", rows, qopts);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->scores.size(), expected.size());
    EXPECT_GE(batch->trace.segments, 1);
    for (int i = 0; i < expected.size(); ++i) {
      // EXPECT_EQ, not NEAR: the whole point is bit-identity.
      EXPECT_EQ(batch->scores[i], expected[i])
          << "threads=" << threads << " row " << i;
    }
    for (int i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(batch->ranks[static_cast<size_t>(i)],
                expected_list.PositionOf(i))
          << "threads=" << threads << " row " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(ServingRoundTripTest, NonDefaultProjectionMethodAlsoRoundTrips) {
  // The serving tier must match whatever solver the model is served with;
  // run the same check under kNewton to cover the hodograph state path.
  const data::Dataset ds = data::GenerateCountryData(40, 5, false);
  const auto alpha = order::Orientation::FromSigns({1, 1, -1, -1});
  core::RpcLearnOptions learn;
  learn.projection.method = opt::ProjectionMethod::kNewton;
  const auto ranker = core::RpcRanker::Fit(ds.values(), *alpha, learn);
  ASSERT_TRUE(ranker.ok()) << ranker.status().ToString();

  RankingService::Options options;
  options.num_threads = 2;
  options.projection = learn.projection;
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("c", ranker->ToPortableModel()).ok());

  const auto batch = service.Query("c", ds.values());
  ASSERT_TRUE(batch.ok());
  for (int i = 0; i < ds.values().rows(); ++i) {
    EXPECT_EQ(batch->scores[i], ranker->Score(ds.values().Row(i)))
        << "row " << i;
  }
}

}  // namespace
}  // namespace rpc::serve
