// Block-layout redistribution tests: the BlockDistribution arithmetic
// the apps partition their arrays with, and the plan_transfers plans
// for Block buffers — every element moves exactly once for every
// (total, P, Q) shape, and the small plans match hand-checked tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "dmr/redist.hpp"
#include "plan_checks.hpp"

namespace {

using namespace dmr::redist;
using dmr::plan_checks::expect_every_element_moves_once;
using dmr::plan_checks::make_desc;

// --- BlockDistribution ------------------------------------------------------

TEST(BlockDistribution, BalancedCounts) {
  const BlockDistribution dist(10, 3);
  EXPECT_EQ(dist.count(0), 3u);  // floor(10r/3) boundaries: 0,3,6,10
  EXPECT_EQ(dist.count(1), 3u);
  EXPECT_EQ(dist.count(2), 4u);
  std::size_t total = 0;
  for (int r = 0; r < 3; ++r) total += dist.count(r);
  EXPECT_EQ(total, 10u);
}

TEST(BlockDistribution, CountsDifferByAtMostOne) {
  for (std::size_t total : {1u, 7u, 64u, 1000u}) {
    for (int parts : {1, 2, 3, 5, 8, 17}) {
      const BlockDistribution dist(total, parts);
      std::size_t lo = total, hi = 0;
      for (int r = 0; r < parts; ++r) {
        lo = std::min(lo, dist.count(r));
        hi = std::max(hi, dist.count(r));
      }
      EXPECT_LE(hi - lo, 1u) << "total=" << total << " parts=" << parts;
    }
  }
}

TEST(BlockDistribution, OwnerConsistentWithRanges) {
  const BlockDistribution dist(100, 7);
  for (std::size_t i = 0; i < 100; ++i) {
    const int owner = dist.owner(i);
    EXPECT_GE(i, dist.begin(owner));
    EXPECT_LT(i, dist.end(owner));
  }
}

TEST(BlockDistribution, Errors) {
  EXPECT_THROW(BlockDistribution(10, 0), std::invalid_argument);
  const BlockDistribution dist(10, 2);
  EXPECT_THROW(dist.owner(10), std::out_of_range);
  EXPECT_THROW(dist.begin(3), std::out_of_range);
}

// --- Block plans ------------------------------------------------------------

TEST(BlockPlan, EveryElementMovesExactlyOnce) {
  // Splits, merges, primes, total < parts, 1 -> 1.
  struct Shape {
    std::size_t total;
    int old_parts;
    int new_parts;
  };
  for (const Shape& s :
       {Shape{16, 4, 8}, Shape{16, 8, 4}, Shape{16, 4, 4}, Shape{100, 7, 3},
        Shape{100, 3, 7}, Shape{1, 1, 4}, Shape{5, 4, 2}, Shape{97, 13, 5},
        Shape{64, 1, 16}, Shape{64, 16, 1}, Shape{33, 32, 3}, Shape{3, 5, 2},
        Shape{3, 2, 8}, Shape{2, 7, 9}, Shape{1, 1, 1}, Shape{6, 6, 6}}) {
    expect_every_element_moves_once(make_desc(Layout::Block, s.total),
                                    s.old_parts, s.new_parts);
  }
}

TEST(BlockPlan, HandChecked) {
  using Row = std::tuple<int, int, std::size_t, std::size_t, std::size_t>;
  struct Case {
    const char* what;
    std::size_t total;
    int old_parts;
    int new_parts;
    std::vector<Row> plan;  // (src, dst, src_offset, dst_offset, count)
  };
  const std::vector<Case> cases = {
      // 1 -> Q: the lone old rank feeds every new rank once, in order.
      {"1->4 scatter", 10, 1, 4,
       {{0, 0, 0, 0, 2}, {0, 1, 2, 0, 3}, {0, 2, 5, 0, 2}, {0, 3, 7, 0, 3}}},
      // Q -> 1: the mirror merge.
      {"4->1 gather", 10, 4, 1,
       {{0, 0, 0, 0, 2}, {1, 0, 0, 2, 3}, {2, 0, 0, 5, 2}, {3, 0, 0, 7, 3}}},
      // 1 -> 1 self-copy (the same-size "migration" of Fig. 1's 48-48).
      {"1->1 identity", 10, 1, 1, {{0, 0, 0, 0, 10}}},
      {"4->4 identity", 100, 4, 4,
       {{0, 0, 0, 0, 25}, {1, 1, 0, 0, 25}, {2, 2, 0, 0, 25},
        {3, 3, 0, 0, 25}}},
      // Factor-2 expand: each old rank feeds exactly two new ranks.
      {"2->4 clean split", 8, 2, 4,
       {{0, 0, 0, 0, 2}, {0, 1, 2, 0, 2}, {1, 2, 0, 0, 2}, {1, 3, 2, 0, 2}}},
  };
  for (const Case& c : cases) {
    std::vector<Row> plan;
    for (const Transfer& t : plan_transfers(make_desc(Layout::Block, c.total),
                                            c.old_parts, c.new_parts)) {
      plan.emplace_back(t.src_rank, t.dst_rank, t.src_offset, t.dst_offset,
                        t.count);
    }
    EXPECT_EQ(plan, c.plan) << c.what;
  }
}

TEST(BlockPlan, Validation) {
  // Geometry validation fires even when there is nothing to move.
  EXPECT_THROW(plan_transfers(make_desc(Layout::Block, 16), 0, 4),
               std::invalid_argument);
  EXPECT_THROW(plan_transfers(make_desc(Layout::Block, 16), 4, -1),
               std::invalid_argument);
  EXPECT_THROW(plan_transfers(make_desc(Layout::Block, 0), 0, 4),
               std::invalid_argument);
  EXPECT_TRUE(plan_transfers(make_desc(Layout::Block, 0), 4, 2).empty());
  EXPECT_TRUE(plan_transfers(make_desc(Layout::Block, 0), 1, 1).empty());
}

}  // namespace
