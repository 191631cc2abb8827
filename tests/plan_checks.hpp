// Plan-checking helpers shared by the redistribution tests (test_redist
// for every layout, test_redistribute for the Block layout the apps use).
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "dmr/redist.hpp"

namespace dmr::plan_checks {

inline redist::Buffer make_desc(redist::Layout layout, std::size_t count,
                                std::size_t elem_size = 8,
                                std::size_t block = 1) {
  redist::Buffer desc;
  desc.name = "buf";
  desc.elem_size = elem_size;
  desc.count = count;
  desc.layout = layout;
  desc.block = block;
  return desc;
}

/// The acceptance property of the overlap plan: for distributing
/// layouts, the transfers partition the global index space, and each
/// transfer lands every element at its place in the new layout.
inline void expect_every_element_moves_once(const redist::Buffer& desc,
                                            int old_parts, int new_parts) {
  using namespace redist;
  SCOPED_TRACE(to_string(desc.layout) + " total=" +
               std::to_string(desc.count) + " " + std::to_string(old_parts) +
               "->" + std::to_string(new_parts));
  const Distribution src(desc, old_parts);
  const Distribution dst(desc, new_parts);
  // Local offset -> global index, per source rank.
  std::vector<std::vector<std::size_t>> src_maps;
  for (int r = 0; r < old_parts; ++r) {
    auto& map = src_maps.emplace_back();
    src.for_each_local_run(r, [&](std::size_t global, std::size_t elems) {
      for (std::size_t k = 0; k < elems; ++k) map.push_back(global + k);
    });
  }
  std::vector<int> covered(desc.count, 0);
  for (const Transfer& t : plan_transfers(desc, old_parts, new_parts)) {
    ASSERT_GT(t.count, 0u);
    const auto& map = src_maps[static_cast<std::size_t>(t.src_rank)];
    ASSERT_LE(t.src_offset + t.count, map.size());
    for (std::size_t k = 0; k < t.count; ++k) {
      const std::size_t g = map[t.src_offset + k];
      const auto to = dst.locate(g);
      EXPECT_EQ(to.rank, t.dst_rank);
      EXPECT_EQ(to.offset, t.dst_offset + k);
      ++covered[g];
    }
  }
  for (std::size_t i = 0; i < desc.count; ++i) {
    ASSERT_EQ(covered[i], 1) << "element " << i;
  }
}

}  // namespace dmr::plan_checks
