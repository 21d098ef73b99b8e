#include "common/bounded_queue.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace rpc {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(queue.TryPush(i));
  EXPECT_EQ(queue.size(), 5);
  for (int i = 0; i < 5; ++i) {
    const auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_EQ(queue.size(), 0);
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  EXPECT_FALSE(queue.TryPush(3));  // full
  EXPECT_EQ(queue.size(), 2);
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.TryPush(3));  // space again
}

TEST(BoundedQueueTest, TryPopOnEmptyReturnsNullopt) {
  BoundedQueue<std::string> queue(2);
  EXPECT_FALSE(queue.TryPop().has_value());
  EXPECT_TRUE(queue.TryPush("x"));
  const auto item = queue.TryPop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, "x");
}

TEST(BoundedQueueTest, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> queue(1);
  ASSERT_TRUE(queue.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Push(2));  // blocks until the consumer pops
    pushed = true;
  });
  // The producer cannot complete while the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(queue.Pop().value_or(-1), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.Pop().value_or(-1), 2);
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> queue(4);
  std::atomic<int> got{-1};
  std::thread consumer([&] { got = queue.Pop().value_or(-2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(got.load(), -1);  // still waiting
  ASSERT_TRUE(queue.Push(7));
  consumer.join();
  EXPECT_EQ(got.load(), 7);
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.Push(1));
  ASSERT_TRUE(queue.Push(2));
  queue.Close();
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.Push(3));     // rejected after close
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.Pop().value_or(-1), 1);  // queued items still drain
  EXPECT_EQ(queue.Pop().value_or(-1), 2);
  EXPECT_FALSE(queue.Pop().has_value());   // drained: end of stream
}

TEST(BoundedQueueTest, CloseWakesBlockedProducerAndConsumer) {
  BoundedQueue<int> full(1);
  ASSERT_TRUE(full.Push(1));
  std::thread producer([&] { EXPECT_FALSE(full.Push(2)); });
  BoundedQueue<int> empty(1);
  std::thread consumer([&] { EXPECT_FALSE(empty.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  full.Close();
  empty.Close();
  producer.join();
  consumer.join();
}

TEST(BoundedQueueTest, PeakSizeTracksHighWaterMark) {
  BoundedQueue<int> queue(8);
  EXPECT_EQ(queue.peak_size(), 0);
  queue.TryPush(1);
  queue.TryPush(2);
  queue.TryPush(3);
  queue.Pop();
  queue.Pop();
  queue.TryPush(4);
  EXPECT_EQ(queue.peak_size(), 3);
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEveryItemOnce) {
  BoundedQueue<int> queue(16);
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (auto& s : seen) s.store(0);

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(queue.Push(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        const auto item = queue.Pop();
        if (!item.has_value()) return;
        ++seen[static_cast<size_t>(*item)];
      }
    });
  }
  for (auto& t : threads) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].load(), 1) << "item " << i;
  }
}

// Close while the queue is full and several producers are blocked in Push:
// every producer must wake with `false`, nothing they carried may be
// enqueued, and the items admitted before the close must still drain in
// FIFO order.
TEST(BoundedQueueTest, CloseWhileFullReleasesEveryBlockedProducer) {
  BoundedQueue<int> queue(2);
  ASSERT_TRUE(queue.Push(0));
  ASSERT_TRUE(queue.Push(1));  // full from here on

  constexpr int kProducers = 6;
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      if (!queue.Push(100 + p)) ++rejected;
    });
  }
  // Give every producer time to block on the full queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(queue.size(), 2);
  queue.Close();
  for (auto& t : producers) t.join();
  EXPECT_EQ(rejected.load(), kProducers);

  // Drain semantics: the two pre-close items, then end-of-stream.
  EXPECT_EQ(queue.Pop().value_or(-1), 0);
  EXPECT_EQ(queue.Pop().value_or(-1), 1);
  EXPECT_FALSE(queue.Pop().has_value());
  // A late producer after the drain still gets a clean rejection.
  EXPECT_FALSE(queue.Push(7));
  EXPECT_FALSE(queue.TryPush(7));
}

// Concurrent TryPush against blocking Pop consumers with a mid-stream
// close: exactly the successfully admitted items are delivered, each once,
// and every consumer unblocks after the drain.
TEST(BoundedQueueTest, ConcurrentTryPushPopDrainDeliversAdmittedExactly) {
  BoundedQueue<int> queue(4);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kAttemptsPerProducer = 400;

  std::atomic<int> admitted{0};
  std::atomic<std::int64_t> admitted_sum{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kAttemptsPerProducer; ++i) {
        const int value = p * kAttemptsPerProducer + i;
        if (queue.TryPush(value)) {
          ++admitted;
          admitted_sum += value;
        }
        // No retry: rejected items are shed, exactly like kReject admission.
      }
    });
  }
  std::atomic<int> delivered{0};
  std::atomic<std::int64_t> delivered_sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        const auto item = queue.Pop();
        if (!item.has_value()) return;  // closed and drained
        ++delivered;
        delivered_sum += *item;
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(delivered.load(), admitted.load());
  EXPECT_EQ(delivered_sum.load(), admitted_sum.load());
  EXPECT_GT(admitted.load(), 0);
  EXPECT_EQ(queue.size(), 0);
  EXPECT_FALSE(queue.TryPop().has_value());
}

// TryPush racing Close: a TryPush either lands (and its item drains) or
// reports false — never a silent drop of an accepted item.
TEST(BoundedQueueTest, TryPushDuringCloseIsAllOrNothing) {
  for (int round = 0; round < 20; ++round) {
    BoundedQueue<int> queue(8);
    std::atomic<int> accepted{0};
    std::thread producer([&] {
      for (int i = 0; i < 64; ++i) {
        if (queue.TryPush(i)) ++accepted;
      }
    });
    std::thread closer([&] { queue.Close(); });
    producer.join();
    closer.join();
    int drained = 0;
    while (queue.Pop().has_value()) ++drained;
    EXPECT_EQ(drained, accepted.load()) << "round " << round;
  }
}

TEST(BoundedQueueTest, CloseAndDrainOnEmptyQueueReturnsImmediately) {
  BoundedQueue<int> queue(4);
  queue.CloseAndDrain();  // nothing queued: must not block
  EXPECT_TRUE(queue.closed());
  EXPECT_FALSE(queue.Push(1));
  EXPECT_FALSE(queue.Pop().has_value());
}

// The graceful-shutdown guarantee the durable ingestion path relies on:
// CloseAndDrain returns only after a consumer has taken every queued item.
TEST(BoundedQueueTest, CloseAndDrainBlocksUntilConsumersEmptyTheQueue) {
  BoundedQueue<int> queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(queue.TryPush(i));

  std::atomic<bool> drain_returned{false};
  std::atomic<int> popped{0};
  std::thread drainer([&] {
    queue.CloseAndDrain();
    drain_returned = true;
  });
  std::thread consumer([&] {
    while (queue.Pop().has_value()) ++popped;
  });
  drainer.join();
  // At the instant CloseAndDrain returned, the queue held nothing.
  EXPECT_TRUE(drain_returned.load());
  EXPECT_EQ(queue.size(), 0);
  consumer.join();
  EXPECT_EQ(popped.load(), 10);
}

// No accepted event is dropped across shutdown: every Push/TryPush that
// returned true before CloseAndDrain is delivered to a consumer.
TEST(BoundedQueueTest, CloseAndDrainLosesNoAcceptedItem) {
  for (int round = 0; round < 10; ++round) {
    BoundedQueue<int> queue(8);
    std::atomic<int> accepted{0};
    std::atomic<std::int64_t> accepted_sum{0};
    std::atomic<int> delivered{0};
    std::atomic<std::int64_t> delivered_sum{0};

    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&, p] {
        for (int i = 0; i < 50; ++i) {
          const int value = p * 50 + i;
          if (queue.Push(value)) {
            ++accepted;
            accepted_sum += value;
          }
        }
      });
    }
    std::thread consumer([&] {
      for (;;) {
        const auto item = queue.Pop();
        if (!item.has_value()) return;
        ++delivered;
        delivered_sum += *item;
      }
    });
    // Close mid-stream: some pushes land, some are rejected — but nothing
    // accepted may vanish.
    queue.CloseAndDrain();
    for (auto& t : producers) t.join();
    consumer.join();

    EXPECT_EQ(delivered.load(), accepted.load()) << "round " << round;
    EXPECT_EQ(delivered_sum.load(), accepted_sum.load()) << "round " << round;
    EXPECT_EQ(queue.size(), 0) << "round " << round;
  }
}

TEST(BoundedQueueTest, ConcurrentCloseAndDrainCallsAllUnblock) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(i));

  std::vector<std::thread> drainers;
  for (int t = 0; t < 3; ++t) {
    drainers.emplace_back([&] { queue.CloseAndDrain(); });
  }
  std::thread consumer([&] {
    while (queue.Pop().has_value()) {
    }
  });
  for (auto& t : drainers) t.join();
  EXPECT_EQ(queue.size(), 0);
  consumer.join();
}

// --------------------------------------------------------------------------
// PriorityBoundedQueue: the QoS admission queue of the serving tier.

TEST(PriorityBoundedQueueTest, PopServesLowerLanesFirstFifoWithinLane) {
  PriorityBoundedQueue<int> queue(8, 3);
  EXPECT_EQ(queue.TryPush(20, 2), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(10, 1), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(0, 0), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(1, 0), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(11, 1), QueuePushResult::kOk);
  EXPECT_EQ(queue.size(), 5);
  // Lane 0 first (FIFO inside), then lane 1, then lane 2 — regardless of
  // arrival order across lanes.
  for (const int expected : {0, 1, 10, 11, 20}) {
    const auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, expected);
  }
  EXPECT_EQ(queue.size(), 0);
}

TEST(PriorityBoundedQueueTest, LaneLimitsShedDeepLanesFirst) {
  PriorityBoundedQueue<int> queue(4, 3);
  queue.SetLaneLimit(1, 3);
  queue.SetLaneLimit(2, 2);
  // Fill to occupancy 2 from the deepest lane: lane 2 is now at its
  // watermark while the shallower lanes still admit.
  EXPECT_EQ(queue.TryPush(0, 2), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(1, 2), QueuePushResult::kOk);
  EXPECT_EQ(queue.TryPush(2, 2), QueuePushResult::kFull);
  EXPECT_EQ(queue.TryPush(3, 1), QueuePushResult::kOk);  // occupancy 3
  EXPECT_EQ(queue.TryPush(4, 1), QueuePushResult::kFull);
  EXPECT_EQ(queue.TryPush(5, 0), QueuePushResult::kOk);  // occupancy 4
  EXPECT_EQ(queue.TryPush(6, 0), QueuePushResult::kFull);  // truly full
  EXPECT_EQ(queue.size(), 4);
  // Draining one slot re-admits lane 0 but lanes 1/2 stay over watermark.
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_EQ(queue.TryPush(7, 2), QueuePushResult::kFull);
  EXPECT_EQ(queue.TryPush(8, 0), QueuePushResult::kOk);
}

TEST(PriorityBoundedQueueTest, SetLaneLimitClampsIntoCapacity) {
  PriorityBoundedQueue<int> queue(4, 2);
  queue.SetLaneLimit(1, 0);  // clamped up to 1: a lane can never be mute
  EXPECT_EQ(queue.lane_limit(1), 1);
  queue.SetLaneLimit(1, 99);  // clamped down to capacity
  EXPECT_EQ(queue.lane_limit(1), 4);
}

TEST(PriorityBoundedQueueTest, PushUntilTimesOutOnAFullQueue) {
  PriorityBoundedQueue<int> queue(1, 2);
  ASSERT_EQ(queue.TryPush(0, 0), QueuePushResult::kOk);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(queue.PushUntil(1, 0,
                            start + std::chrono::milliseconds(20)),
            QueuePushResult::kTimeout);
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(20));
  // Room frees up: the same push is admitted.
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_EQ(queue.Push(1, 0), QueuePushResult::kOk);
}

TEST(PriorityBoundedQueueTest, BlockedPushAdmittedWhenSpaceFrees) {
  PriorityBoundedQueue<int> queue(1, 2);
  ASSERT_EQ(queue.TryPush(0, 0), QueuePushResult::kOk);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(queue.Push(1, 1), QueuePushResult::kOk);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(pushed.load());
  EXPECT_TRUE(queue.Pop().has_value());
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(queue.size(), 1);
}

TEST(PriorityBoundedQueueTest, CloseDrainsQueuedItemsThenNullopt) {
  PriorityBoundedQueue<int> queue(4, 2);
  ASSERT_EQ(queue.TryPush(1, 1), QueuePushResult::kOk);
  ASSERT_EQ(queue.TryPush(0, 0), QueuePushResult::kOk);
  queue.Close();
  EXPECT_EQ(queue.TryPush(2, 0), QueuePushResult::kClosed);
  EXPECT_EQ(queue.Push(3, 0), QueuePushResult::kClosed);
  EXPECT_EQ(queue.PushUntil(4, 0, std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(5)),
            QueuePushResult::kClosed);
  EXPECT_EQ(queue.Pop(), std::optional<int>(0));
  EXPECT_EQ(queue.Pop(), std::optional<int>(1));
  EXPECT_EQ(queue.Pop(), std::nullopt);
}

TEST(PriorityBoundedQueueTest, CloseUnblocksWaitingProducersAndConsumers) {
  PriorityBoundedQueue<int> queue(1, 2);
  ASSERT_EQ(queue.TryPush(0, 0), QueuePushResult::kOk);
  std::thread producer([&] {
    // Blocks on the full queue until Close — nobody pops before then, so
    // the push can only fail with kClosed.
    EXPECT_EQ(queue.Push(1, 0), QueuePushResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.Close();
  producer.join();
  std::thread consumer([&] {
    EXPECT_TRUE(queue.Pop().has_value());   // the queued item drains
    EXPECT_FALSE(queue.Pop().has_value());  // then closed-and-drained
  });
  consumer.join();
}

TEST(PriorityBoundedQueueTest, PeakSizeTracksHighWaterMark) {
  PriorityBoundedQueue<int> queue(8, 2);
  EXPECT_EQ(queue.peak_size(), 0);
  for (int i = 0; i < 5; ++i) ASSERT_EQ(queue.TryPush(i, 1), QueuePushResult::kOk);
  while (queue.TryPop().has_value()) {
  }
  EXPECT_EQ(queue.size(), 0);
  EXPECT_EQ(queue.peak_size(), 5);  // survives the drain
}

TEST(PriorityBoundedQueueTest, ConcurrentMixedLanePushPopLosesNothing) {
  PriorityBoundedQueue<int> queue(8, 3);
  constexpr int kPerLane = 200;
  std::atomic<std::int64_t> popped_sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> producers;
  for (int lane = 0; lane < 3; ++lane) {
    producers.emplace_back([&, lane] {
      for (int i = 0; i < kPerLane; ++i) {
        ASSERT_EQ(queue.Push(lane * kPerLane + i, lane), QueuePushResult::kOk);
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        const auto item = queue.Pop();
        if (!item.has_value()) return;
        ++popped;
        popped_sum += *item;
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), 3 * kPerLane);
  const std::int64_t n = 3 * kPerLane;
  EXPECT_EQ(popped_sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace rpc
