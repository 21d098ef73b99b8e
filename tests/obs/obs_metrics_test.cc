#include "obs/metrics.h"

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/buckets.h"

namespace rpc::obs {
namespace {

TEST(CounterTest, SameSeriesSharesCells) {
  Registry registry;
  Counter a = registry.GetCounter("c_shared", {{"k", "v"}});
  Counter b = registry.GetCounter("c_shared", {{"k", "v"}});
  a.Add(3);
  b.Increment();
  EXPECT_EQ(a.Value(), 4);
  EXPECT_EQ(b.Value(), 4);
}

TEST(CounterTest, LabelOrderDoesNotSplitTheSeries) {
  Registry registry;
  Counter a = registry.GetCounter("c_order", {{"a", "1"}, {"b", "2"}});
  Counter b = registry.GetCounter("c_order", {{"b", "2"}, {"a", "1"}});
  a.Increment();
  EXPECT_EQ(b.Value(), 1);
}

TEST(CounterTest, DifferentLabelsAreDifferentSeries) {
  Registry registry;
  Counter a = registry.GetCounter("c_split", {{"k", "a"}});
  Counter b = registry.GetCounter("c_split", {{"k", "b"}});
  a.Add(5);
  EXPECT_EQ(a.Value(), 5);
  EXPECT_EQ(b.Value(), 0);
}

TEST(CounterTest, ConcurrentAddsAllLand) {
  Registry registry;
  Counter counter = registry.GetCounter("c_mt");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kAddsPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<std::int64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Registry registry;
  Gauge gauge = registry.GetGauge("g");
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(4.5);
  EXPECT_EQ(gauge.Value(), 4.5);
  gauge.Add(0.5);
  EXPECT_EQ(gauge.Value(), 5.0);
}

TEST(HandleTest, DefaultConstructedHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  counter.Add(7);
  gauge.Set(1.0);
  histogram.Record(2.0);
  EXPECT_EQ(counter.Value(), 0);
  EXPECT_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(histogram.TotalCount(), 0);
}

TEST(RegistryTest, TypeConflictReturnsDetachedButWorkingCells) {
  Registry registry;
  Counter counter = registry.GetCounter("conflict");
  counter.Add(2);
  // Same name, different type: the handle must still work (no crash, no
  // corruption of the original series) but must not join the counter.
  Gauge gauge = registry.GetGauge("conflict");
  gauge.Set(9.0);
  EXPECT_EQ(gauge.Value(), 9.0);
  EXPECT_EQ(counter.Value(), 2);
  int conflict_series = 0;
  for (const Registry::Sample& sample : registry.Snapshot()) {
    if (sample.name == "conflict") {
      ++conflict_series;
      EXPECT_EQ(sample.type, MetricType::kCounter);
      EXPECT_EQ(sample.value, 2.0);
    }
  }
  EXPECT_EQ(conflict_series, 1);
}

TEST(RegistryTest, CallbackGaugeLifecycle) {
  Registry registry;
  double live_value = 1.5;
  {
    Registry::CallbackHandle handle = registry.GetCallbackGauge(
        "cb", {}, [&live_value] { return live_value; });
    live_value = 7.25;
    bool found = false;
    for (const Registry::Sample& sample : registry.Snapshot()) {
      if (sample.name != "cb") continue;
      found = true;
      EXPECT_EQ(sample.type, MetricType::kGauge);
      EXPECT_EQ(sample.value, 7.25);
    }
    EXPECT_TRUE(found);
  }
  // Handle destroyed: the series unregisters (its callback would dangle).
  for (const Registry::Sample& sample : registry.Snapshot()) {
    EXPECT_NE(sample.name, "cb");
  }
}

TEST(RegistryTest, SnapshotIsSortedByNameThenLabels) {
  Registry registry;
  registry.GetCounter("zz");
  registry.GetCounter("aa", {{"k", "2"}});
  registry.GetCounter("aa", {{"k", "1"}});
  registry.GetGauge("mm");
  const std::vector<Registry::Sample> samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "aa");
  EXPECT_EQ(samples[0].labels, (Labels{{"k", "1"}}));
  EXPECT_EQ(samples[1].name, "aa");
  EXPECT_EQ(samples[1].labels, (Labels{{"k", "2"}}));
  EXPECT_EQ(samples[2].name, "mm");
  EXPECT_EQ(samples[3].name, "zz");
}

TEST(RegistryTest, HistogramSnapshotInSamples) {
  Registry registry;
  Histogram histogram = registry.GetHistogram("h", {1.0, 10.0});
  histogram.Record(0.5);   // bucket 0: [<1)
  histogram.Record(5.0);   // bucket 1: [1, 10)
  histogram.Record(100.0); // bucket 2: +Inf
  for (const Registry::Sample& sample : registry.Snapshot()) {
    if (sample.name != "h") continue;
    ASSERT_EQ(sample.histogram.counts.size(), 3u);
    EXPECT_EQ(sample.histogram.counts[0], 1);
    EXPECT_EQ(sample.histogram.counts[1], 1);
    EXPECT_EQ(sample.histogram.counts[2], 1);
    EXPECT_EQ(sample.histogram.count, 3);
    EXPECT_EQ(sample.histogram.sum, 105.5);
  }
}

// Bucket i holds [2^i, 2^(i+1)) us; sub-microsecond values share bucket 0
// and everything past 2^19 us lands in the open-ended last bucket.
TEST(LatencyBucketsTest, BucketsArePowersOfTwoMicroseconds) {
  EXPECT_EQ(LatencyBucketForUs(0), 0);
  EXPECT_EQ(LatencyBucketForUs(1), 0);
  EXPECT_EQ(LatencyBucketForUs(2), 1);
  EXPECT_EQ(LatencyBucketForUs(3), 1);
  EXPECT_EQ(LatencyBucketForUs(4), 2);
  EXPECT_EQ(LatencyBucketForUs(1000), 9);
  EXPECT_EQ(LatencyBucketForUs(std::int64_t{100'000'000}),
            kLatencyBuckets - 1);
}

TEST(RegistryTest, GlobalIsOneInstance) {
  Counter a = Registry::Global().GetCounter("metrics_test_global_probe");
  Counter b = Registry::Global().GetCounter("metrics_test_global_probe");
  a.Increment();
  EXPECT_EQ(b.Value(), a.Value());
}

}  // namespace
}  // namespace rpc::obs
