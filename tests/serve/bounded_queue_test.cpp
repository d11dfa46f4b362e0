#include "serve/bounded_queue.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "util/fault.h"

namespace hedra::serve {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), 3);
}

TEST(BoundedQueueTest, FullQueueRefusesInsteadOfBlocking) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // shed, not blocked
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.pop(), 1);
  EXPECT_TRUE(queue.try_push(3));  // capacity freed
}

TEST(BoundedQueueTest, TakenItemsHoldCapacityUntilReleased) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.push(1));
  EXPECT_TRUE(queue.push(2));
  EXPECT_EQ(queue.take_all(), (std::vector<int>{1, 2}));
  // Taken but not released: still full.
  EXPECT_FALSE(queue.try_push(3));
  std::thread producer([&] { EXPECT_TRUE(queue.push(3)); });
  queue.release(2);  // wakes the blocked push
  producer.join();
  EXPECT_EQ(queue.take_all(), (std::vector<int>{3}));
  queue.release(1);
  queue.close();
  EXPECT_TRUE(queue.take_all().empty());  // closed and drained
  EXPECT_FALSE(queue.push(4));
}

TEST(BoundedQueueTest, CloseDrainsThenEnds) {
  BoundedQueue<std::string> queue(4);
  EXPECT_TRUE(queue.try_push("a"));
  EXPECT_TRUE(queue.try_push("b"));
  queue.close();
  EXPECT_FALSE(queue.try_push("rejected"));
  EXPECT_EQ(queue.pop(), "a");
  EXPECT_EQ(queue.pop(), "b");
  EXPECT_EQ(queue.pop(), std::nullopt);
  EXPECT_EQ(queue.pop(), std::nullopt);  // stays ended
}

TEST(BoundedQueueTest, CloseWakesABlockedPop) {
  BoundedQueue<int> queue(4);
  std::optional<int> result = 42;
  std::thread consumer([&] { result = queue.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  queue.close();
  consumer.join();
  EXPECT_EQ(result, std::nullopt);
}

TEST(BoundedQueueTest, HandOffAcrossThreads) {
  BoundedQueue<int> queue(16);
  std::vector<int> received;
  std::thread consumer([&] {
    for (;;) {
      auto item = queue.pop();
      if (!item.has_value()) break;
      received.push_back(*item);
    }
  });
  for (int i = 0; i < 1000; ++i) {
    while (!queue.try_push(i)) std::this_thread::yield();
  }
  queue.close();
  consumer.join();
  ASSERT_EQ(received.size(), 1000u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST(BoundedQueueTest, InjectedPushFaultThrows) {
  BoundedQueue<int> queue(4);
  fault::configure("serve.queue.push=@1");
  EXPECT_THROW((void)queue.try_push(1), fault::Injected);
  fault::reset();
  // The faulted push handed nothing off.
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_EQ(queue.pop(), 2);
  fault::clear_registry();
}

}  // namespace
}  // namespace hedra::serve
