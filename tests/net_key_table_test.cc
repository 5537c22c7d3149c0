// KeyTable: the open-addressing table behind the host endpoint demux and
// DRR's flow index. Checks it against std::unordered_map under random
// churn (backward-shift deletion must keep every live key reachable), and
// that churn leaves its capacity at the most keys held at once.
#include "net/key_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "util/rng.h"

namespace tcpdyn::net {
namespace {

std::uint64_t key(std::uint64_t conn, bool ack) { return (conn << 1) | ack; }

TEST(KeyTable, EmptyTableFindsNothing) {
  KeyTable<int> t;
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.capacity(), 0u);
}

TEST(KeyTable, InsertOverwritesAndEraseRemoves) {
  KeyTable<int> t;
  t.insert_or_assign(key(3, false), 1);
  t.insert_or_assign(key(3, true), 2);
  t.insert_or_assign(key(3, false), 5);
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(key(3, false)), nullptr);
  EXPECT_EQ(*t.find(key(3, false)), 5);
  EXPECT_EQ(*t.find(key(3, true)), 2);
  EXPECT_TRUE(t.erase(key(3, false)));
  EXPECT_FALSE(t.erase(key(3, false)));
  EXPECT_EQ(t.find(key(3, false)), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(KeyTable, MatchesUnorderedMapUnderRandomChurn) {
  for (const std::uint64_t range : {8u, 64u, 1000u}) {
    KeyTable<std::uint32_t> t;
    std::unordered_map<std::uint64_t, std::uint32_t> ref;
    util::Rng rng(range);
    for (std::uint32_t op = 0; op < 40'000; ++op) {
      const std::uint64_t k = key(rng.next_below(range), rng.next_below(2));
      if (rng.next_below(2) == 0) {
        t.insert_or_assign(k, op);
        ref[k] = op;
      } else {
        ASSERT_EQ(t.erase(k), ref.erase(k) == 1) << "op " << op;
      }
      ASSERT_EQ(t.size(), ref.size());
      // Every live key stays reachable after each backward shift.
      const std::uint64_t probe = key(rng.next_below(range), false);
      const auto it = ref.find(probe);
      const std::uint32_t* got = t.find(probe);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "op " << op;
      if (got != nullptr) {
        ASSERT_EQ(*got, it->second);
      }
    }
    for (const auto& [k, v] : ref) {
      ASSERT_NE(t.find(k), nullptr);
      EXPECT_EQ(*t.find(k), v);
    }
  }
}

// Session churn: 10^4 cycles, each registering a new connection's data and
// ACK keys and retiring those of the connection 64 before it. Deletion
// leaves no tombstone, so capacity stops at the first size that holds 128
// keys under 3/4 load and the table never grows again.
TEST(KeyTable, ChurnKeepsCapacityAtPeakOccupancy) {
  KeyTable<int> t;
  constexpr std::uint64_t kLive = 64;
  std::size_t peak_capacity = 0;
  for (std::uint64_t c = 0; c < 10'000; ++c) {
    t.insert_or_assign(key(c, false), 1);
    t.insert_or_assign(key(c, true), 1);
    if (c >= kLive) {
      ASSERT_TRUE(t.erase(key(c - kLive, false)));
      ASSERT_TRUE(t.erase(key(c - kLive, true)));
    }
    if (c == 2 * kLive) peak_capacity = t.capacity();
    ASSERT_EQ(t.size(), 2 * std::min<std::uint64_t>(c + 1, kLive));
  }
  EXPECT_EQ(peak_capacity, 256u);
  EXPECT_EQ(t.capacity(), peak_capacity);
}

}  // namespace
}  // namespace tcpdyn::net
