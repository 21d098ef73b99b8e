#include "serve/ranking_service.h"

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/model_io.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"
#include "order/orientation.h"

namespace rpc::serve {
namespace {

using linalg::Matrix;
using linalg::Vector;

// A synthetic all-benefit model with a random strictly monotone cubic in
// [0,1]^d — no fitting needed, so service tests stay fast. Keep in sync
// with the copy in bench/bench_serving_throughput.cc: the bench must
// verify the same model family these tests pin down.
core::PortableRpcModel MonotoneModel(int d, uint64_t seed) {
  Rng rng(seed);
  Matrix control(d, 4);
  for (int i = 0; i < d; ++i) {
    control(i, 0) = 0.0;
    control(i, 1) = rng.Uniform(0.1, 0.45);
    control(i, 2) = rng.Uniform(0.55, 0.9);
    control(i, 3) = 1.0;
  }
  core::PortableRpcModel model;
  model.alpha = order::Orientation::AllBenefit(d);
  model.mins = Vector(d, 0.0);
  model.maxs = Vector(d, 1.0);
  model.control_points = control;
  return model;
}

Matrix RandomRows(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) rows(i, j) = rng.Uniform(-0.1, 1.1);
  }
  return rows;
}

// Rows away from the shared corners: two different curves then project each
// row to a different s (a corner-adjacent row saturates to s = 0/1 under
// *any* monotone model, which would make models indistinguishable).
Matrix InteriorRows(int n, int d, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(n, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) rows(i, j) = rng.Uniform(0.2, 0.8);
  }
  return rows;
}

TEST(RankingServiceTest, LifecycleRegisterListEvict) {
  RankingService service;
  EXPECT_FALSE(service.HasDataset("a"));
  ASSERT_TRUE(service.RegisterDataset("a", MonotoneModel(3, 1)).ok());
  ASSERT_TRUE(service.RegisterDataset("b", MonotoneModel(2, 2)).ok());
  EXPECT_TRUE(service.HasDataset("a"));
  EXPECT_EQ(service.DatasetIds(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(service.stats().datasets, 2);

  EXPECT_TRUE(service.EvictDataset("a").ok());
  EXPECT_FALSE(service.HasDataset("a"));
  EXPECT_EQ(service.EvictDataset("a").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().datasets, 1);
}

TEST(RankingServiceTest, RejectsEmptyIdAndInvalidModel) {
  RankingService service;
  EXPECT_EQ(service.RegisterDataset("", MonotoneModel(2, 3)).code(),
            StatusCode::kInvalidArgument);
  core::PortableRpcModel bad = MonotoneModel(2, 4);
  bad.control_points(0, 1) = 1.5;  // interior point outside [0,1]
  EXPECT_FALSE(service.RegisterDataset("bad", bad).ok());
  EXPECT_FALSE(service.HasDataset("bad"));

  // Degenerate normalisation bounds must be rejected on the in-memory path
  // exactly like Deserialize rejects them from a file — otherwise the hot
  // loop would divide by zero and serve NaN scores.
  core::PortableRpcModel degenerate = MonotoneModel(2, 5);
  degenerate.maxs[0] = degenerate.mins[0];
  EXPECT_EQ(service.RegisterDataset("deg", degenerate).code(),
            StatusCode::kInvalidArgument);
  core::PortableRpcModel short_bounds = MonotoneModel(2, 6);
  short_bounds.mins = Vector(1, 0.0);
  EXPECT_EQ(service.RegisterDataset("short", short_bounds).code(),
            StatusCode::kInvalidArgument);
}

TEST(RankingServiceTest, UnknownDatasetAndShapeMismatch) {
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d3", MonotoneModel(3, 5)).ok());
  EXPECT_EQ(service.Query("nope", RandomRows(4, 3, 6)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Query("d3", RandomRows(4, 2, 7)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RankingServiceTest, EmptyBatchShortCircuits) {
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 8)).ok());
  const auto batch = service.Query("d", Matrix(0, 2));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->scores.size(), 0);
  EXPECT_TRUE(batch->ranks.empty());
}

TEST(RankingServiceTest, ScoresMatchThePortableModel) {
  const core::PortableRpcModel model = MonotoneModel(3, 9);
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d", model).ok());
  const Matrix rows = RandomRows(32, 3, 10);
  const auto batch = service.Query("d", rows);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->scores.size(), 32);
  for (int i = 0; i < rows.rows(); ++i) {
    const auto expected = model.Score(rows.Row(i));
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ(batch->scores[i], *expected) << "row " << i;
  }
}

TEST(RankingServiceTest, RanksAreTheWithinBatchOrder) {
  RankingService service;
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 11)).ok());
  const Matrix rows = RandomRows(16, 2, 12);
  const auto batch = service.Query("d", rows);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(static_cast<int>(batch->ranks.size()), 16);
  // rank r means: exactly r-1 rows score strictly better (or tie with a
  // lower index).
  for (int i = 0; i < 16; ++i) {
    int better = 0;
    for (int j = 0; j < 16; ++j) {
      if (batch->scores[j] > batch->scores[i] ||
          (batch->scores[j] == batch->scores[i] && j < i)) {
        ++better;
      }
    }
    EXPECT_EQ(batch->ranks[static_cast<size_t>(i)], better + 1) << "row " << i;
  }
}

TEST(RankingServiceTest, BitIdenticalAcrossThreadCountsAndSegmentSizes) {
  const core::PortableRpcModel model = MonotoneModel(4, 13);
  const Matrix rows = RandomRows(257, 4, 14);  // not a multiple of segments

  Vector reference;
  for (const int threads : {1, 2, 8}) {
    for (const int segment_rows : {1024, 7}) {
      RankingService::Options options;
      options.num_threads = threads;
      options.segment_rows = segment_rows;
      RankingService service(options);
      ASSERT_TRUE(service.RegisterDataset("d", model).ok());
      const auto batch = service.Query("d", rows);
      ASSERT_TRUE(batch.ok());
      if (reference.empty()) {
        reference = batch->scores;
        continue;
      }
      ASSERT_EQ(batch->scores.size(), reference.size());
      for (int i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(batch->scores[i], reference[i])
            << "threads=" << threads << " segment_rows=" << segment_rows
            << " row " << i;
      }
    }
  }
}

TEST(RankingServiceTest, RegisterReplacesAtomicallyAndQueriesNeverTear) {
  // Two distinct models under the same id; a writer thread keeps swapping
  // them while readers hammer Query. Every returned batch must match
  // one model exactly — row-wise mixtures would mean a torn snapshot.
  const core::PortableRpcModel model_a = MonotoneModel(2, 15);
  const core::PortableRpcModel model_b = MonotoneModel(2, 16);
  const Matrix rows = InteriorRows(13, 2, 17);

  Vector expect_a(rows.rows());
  Vector expect_b(rows.rows());
  for (int i = 0; i < rows.rows(); ++i) {
    expect_a[i] = *model_a.Score(rows.Row(i));
    expect_b[i] = *model_b.Score(rows.Row(i));
    // The test below needs the two models to be distinguishable per row.
    ASSERT_NE(expect_a[i], expect_b[i]) << "row " << i;
  }

  RankingService::Options options;
  options.num_threads = 4;
  options.segment_rows = 3;  // several segments per query
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", model_a).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      while (!stop.load()) {
        const auto batch = service.Query("d", rows);
        if (!batch.ok()) continue;  // swapped out mid-lookup: never expected
        bool all_a = true;
        bool all_b = true;
        for (int i = 0; i < rows.rows(); ++i) {
          all_a = all_a && batch->scores[i] == expect_a[i];
          all_b = all_b && batch->scores[i] == expect_b[i];
        }
        if (!all_a && !all_b) ++torn;
      }
    });
  }
  for (int swap = 0; swap < 50; ++swap) {
    ASSERT_TRUE(
        service.RegisterDataset("d", swap % 2 == 0 ? model_b : model_a).ok());
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(torn.load(), 0);
}

TEST(RankingServiceTest, EvictionDoesNotDisturbInFlightQueries) {
  const core::PortableRpcModel model = MonotoneModel(3, 18);
  const Matrix rows = RandomRows(64, 3, 19);
  Vector expected(rows.rows());
  for (int i = 0; i < rows.rows(); ++i) expected[i] = *model.Score(rows.Row(i));

  RankingService::Options options;
  options.num_threads = 4;
  options.segment_rows = 4;
  RankingService service(options);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto batch = service.Query("d", rows);
      if (!batch.ok()) continue;  // evicted: kNotFound is the correct answer
      for (int i = 0; i < rows.rows(); ++i) {
        if (batch->scores[i] != expected[i]) ++wrong;
      }
    }
  });
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(service.RegisterDataset("d", model).ok());
    (void)service.EvictDataset("d");
  }
  stop = true;
  reader.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(RankingServiceTest, ConcurrentQueriesAcrossManyShards) {
  RankingService::Options options;
  options.num_threads = 4;
  options.segment_rows = 8;
  RankingService service(options);

  constexpr int kShards = 6;
  std::vector<core::PortableRpcModel> models;
  std::vector<Matrix> queries;
  std::vector<Vector> expected;
  for (int s = 0; s < kShards; ++s) {
    models.push_back(MonotoneModel(2 + s % 3, 100 + static_cast<uint64_t>(s)));
    ASSERT_TRUE(
        service.RegisterDataset("ds" + std::to_string(s), models.back()).ok());
    queries.push_back(
        RandomRows(40, 2 + s % 3, 200 + static_cast<uint64_t>(s)));
    Vector exp(queries.back().rows());
    for (int i = 0; i < queries.back().rows(); ++i) {
      exp[i] = *models.back().Score(queries.back().Row(i));
    }
    expected.push_back(std::move(exp));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      for (int q = 0; q < 25; ++q) {
        const int s = (c + q) % kShards;
        const auto batch =
            service.Query("ds" + std::to_string(s), queries[s]);
        if (!batch.ok()) {
          ++mismatches;
          continue;
        }
        for (int i = 0; i < expected[s].size(); ++i) {
          if (batch->scores[i] != expected[s][i]) ++mismatches;
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries, 4 * 25);
  EXPECT_EQ(stats.rows, 4 * 25 * 40);
  EXPECT_GE(stats.segments, stats.queries);
  EXPECT_GE(stats.peak_queue_depth, 1);
}

TEST(RankingServiceTest, RejectAdmissionShedsWhenBacklogged) {
  RankingService::Options options;
  options.num_threads = 2;     // one worker draining
  options.queue_capacity = 1;  // tiny admission window
  options.segment_rows = 1;    // every row is its own segment
  RankingService service(options);
  ASSERT_TRUE(service.RegisterDataset("d", MonotoneModel(2, 20)).ok());

  // 4096 one-row segments through a 1-deep queue: the single worker cannot
  // keep up with the push loop, so admission must refuse at some point.
  const Matrix rows = RandomRows(4096, 2, 21);
  QueryOptions reject;
  reject.admission = AdmissionPolicy::kReject;
  bool rejected = false;
  for (int attempt = 0; attempt < 3 && !rejected; ++attempt) {
    const auto batch = service.Query("d", rows, reject);
    if (!batch.ok()) {
      EXPECT_EQ(batch.status().code(), StatusCode::kFailedPrecondition);
      rejected = true;
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_GE(service.stats().rejected, 1);

  // The service stays fully usable after rejections.
  const auto ok_batch = service.Query("d", RandomRows(8, 2, 22));
  EXPECT_TRUE(ok_batch.ok());
}

// Version-aware registration: the service reports the registered model's
// version, a copy-on-write replacement advances it atomically, and evict
// forgets it.
TEST(RankingServiceTest, DatasetVersionTracksRegistrations) {
  RankingService service;
  EXPECT_EQ(service.DatasetVersion("v").status().code(),
            StatusCode::kNotFound);

  core::PortableRpcModel model = MonotoneModel(2, 91);
  model.version = 1;
  ASSERT_TRUE(service.RegisterDataset("v", model).ok());
  ASSERT_TRUE(service.DatasetVersion("v").ok());
  EXPECT_EQ(*service.DatasetVersion("v"), 1u);

  model.version = 2;
  ASSERT_TRUE(service.RegisterDataset("v", model).ok());
  EXPECT_EQ(*service.DatasetVersion("v"), 2u);
  EXPECT_EQ(service.stats().registrations, 2);

  ASSERT_TRUE(service.EvictDataset("v").ok());
  EXPECT_EQ(service.DatasetVersion("v").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace rpc::serve
