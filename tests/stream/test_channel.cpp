// BoundedChannel: FIFO order, blocking backpressure, close semantics under
// blocked producers/consumers, try variants, and MPMC delivery exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "pipesched/stream/channel.hpp"

namespace pipesched::stream {
namespace {

TEST(BoundedChannel, FifoWithinCapacity) {
  BoundedChannel<int> channel(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(channel.push(i));
  EXPECT_EQ(channel.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::optional<int> value = channel.pop();
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, i);
  }
  EXPECT_EQ(channel.size(), 0u);
  const ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.pushed, 4u);
  EXPECT_EQ(stats.popped, 4u);
  EXPECT_EQ(stats.highWater, 4u);
}

TEST(BoundedChannel, ZeroCapacityIsRejected) {
  EXPECT_THROW(BoundedChannel<int>(0), ModelError);
}

TEST(BoundedChannel, PushBlocksWhenFullUntilAPopMakesRoom) {
  BoundedChannel<int> channel(1);
  ASSERT_TRUE(channel.push(1));
  std::atomic<bool> secondPushDone{false};
  std::thread producer([&] {
    EXPECT_TRUE(channel.push(2));  // blocks until the pop below
    secondPushDone = true;
  });
  // Wait until the producer is provably parked (pushWaits is bumped before
  // the wait) — a fixed sleep would race thread startup on a loaded box.
  while (channel.stats().pushWaits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(secondPushDone.load());
  EXPECT_EQ(channel.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(secondPushDone.load());
  EXPECT_EQ(channel.pop().value(), 2);
  EXPECT_GE(channel.stats().pushWaits, 1u);  // the backpressure episode was counted
}

TEST(BoundedChannel, CloseUnblocksProducerWithFalse) {
  BoundedChannel<int> channel(1);
  ASSERT_TRUE(channel.push(1));
  std::atomic<bool> pushResult{true};
  std::thread producer([&] { pushResult = channel.push(2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.close();
  producer.join();
  EXPECT_FALSE(pushResult.load());
  // The accepted value still drains; then end-of-stream.
  EXPECT_EQ(channel.pop().value(), 1);
  EXPECT_FALSE(channel.pop().has_value());
}

TEST(BoundedChannel, CloseUnblocksConsumerWithNullopt) {
  BoundedChannel<int> channel(2);
  std::optional<int> result = 42;
  std::thread consumer([&] { result = channel.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  channel.close();
  consumer.join();
  EXPECT_FALSE(result.has_value());
  EXPECT_FALSE(channel.push(7));  // push after close is refused
}

TEST(BoundedChannel, CloseDrainsThenSignalsEnd) {
  BoundedChannel<int> channel(4);
  ASSERT_TRUE(channel.push(7));
  channel.close();
  EXPECT_EQ(channel.pop(), 7);  // accepted values outlive the close
  EXPECT_EQ(channel.pop(), std::nullopt);
  EXPECT_FALSE(channel.push(8));
}

TEST(BoundedChannel, TryVariantsNeverBlock) {
  BoundedChannel<int> channel(1);
  EXPECT_FALSE(channel.tryPop().has_value());  // empty
  int value = 5;
  EXPECT_TRUE(channel.tryPush(value));
  int rejected = 6;
  EXPECT_FALSE(channel.tryPush(rejected));  // full
  EXPECT_EQ(rejected, 6);                   // untouched on failure
  EXPECT_EQ(channel.tryPop().value(), 5);
  channel.close();
  int afterClose = 7;
  EXPECT_FALSE(channel.tryPush(afterClose));
}

TEST(BoundedChannel, MpmcDeliversEveryValueExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedChannel<int> channel(8);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&channel, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(channel.push(p * kPerProducer + i));
      }
    });
  }
  std::mutex received_mutex;
  std::multiset<int> received;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (std::optional<int> value = channel.pop()) {
        std::lock_guard lock(received_mutex);
        received.insert(*value);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  channel.close();
  for (std::thread& t : consumers) t.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  for (int v = 0; v < kProducers * kPerProducer; ++v) {
    EXPECT_EQ(received.count(v), 1u) << "value " << v;
  }
  const ChannelStats stats = channel.stats();
  EXPECT_EQ(stats.pushed, static_cast<std::uint64_t>(kProducers * kPerProducer));
  EXPECT_EQ(stats.popped, stats.pushed);
  EXPECT_LE(stats.highWater, 8u);  // never exceeded capacity
}

TEST(BoundedChannel, MoveOnlyValuesFlowThrough) {
  BoundedChannel<std::unique_ptr<int>> channel(2);
  EXPECT_TRUE(channel.push(std::make_unique<int>(11)));
  const std::optional<std::unique_ptr<int>> value = channel.pop();
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(**value, 11);
}

}  // namespace
}  // namespace pipesched::stream
