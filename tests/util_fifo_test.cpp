#include "util/fifo.hpp"

#include <deque>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace vdap::util {
namespace {

TEST(Fifo, EmptyUntilFirstPush) {
  Fifo<std::string> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back("a");
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q[0], "a");
  EXPECT_EQ(q.pop_front(), "a");
  EXPECT_TRUE(q.empty());
}

// Growing while the ring has wrapped keeps FIFO order.
TEST(Fifo, GrowsAcrossTheWrapInOrder) {
  Fifo<int> q;
  for (int i = 0; i < 4; ++i) q.push_back(i);
  EXPECT_EQ(q.pop_front(), 0);
  EXPECT_EQ(q.pop_front(), 1);
  for (int i = 4; i < 11; ++i) q.push_back(i);  // wraps, then grows
  ASSERT_EQ(q.size(), 9u);
  for (std::size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(i) + 2);
  }
  for (int i = 2; i < 11; ++i) EXPECT_EQ(q.pop_front(), i);
  EXPECT_TRUE(q.empty());
}

// Random pushes and pops against std::deque as the reference.
TEST(Fifo, MatchesDequeOnRandomOperations) {
  Fifo<std::string> q;
  std::deque<std::string> ref;
  std::mt19937 rng(5);
  for (int step = 0; step < 20000; ++step) {
    if (ref.empty() || rng() % 3 != 0) {
      std::string v = std::to_string(step) + std::string(rng() % 40, 'x');
      q.push_back(v);
      ref.push_back(v);
    } else {
      ASSERT_EQ(q[0], ref.front());
      ASSERT_EQ(q.pop_front(), ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(q.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(q[ref.size() - 1], ref.back());
    }
  }
}

}  // namespace
}  // namespace vdap::util
