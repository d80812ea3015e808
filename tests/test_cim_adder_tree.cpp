#include "cim/adder_tree.hpp"

#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::hw {
namespace {

TEST(AdderTree, DepthIsCeilLog2) {
  EXPECT_EQ(AdderTree(1).depth(), 0U);
  EXPECT_EQ(AdderTree(2).depth(), 1U);
  EXPECT_EQ(AdderTree(3).depth(), 2U);
  EXPECT_EQ(AdderTree(8).depth(), 3U);
  EXPECT_EQ(AdderTree(9).depth(), 4U);
  // The paper's p_max=3 window column: p²+2p = 15 rows → depth 4.
  EXPECT_EQ(AdderTree(15).depth(), 4U);
}

TEST(AdderTree, AdderCountIsFanInMinusOne) {
  for (std::uint32_t fan_in : {1U, 2U, 5U, 8U, 15U, 24U, 100U}) {
    EXPECT_EQ(AdderTree(fan_in).adders_per_reduction(), fan_in - 1)
        << "fan_in=" << fan_in;
  }
}

TEST(AdderTree, ReduceEqualsPlainSum) {
  util::Rng rng(1);
  for (std::uint32_t fan_in : {1U, 2U, 7U, 15U, 24U, 63U}) {
    AdderTree tree(fan_in);
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint8_t> products(fan_in);
      std::uint32_t expected = 0;
      for (auto& p : products) {
        p = rng.chance(0.5) ? 1 : 0;
        expected += p;
      }
      EXPECT_EQ(tree.reduce(products), expected);
    }
  }
}

TEST(AdderTree, ShiftAndAddEqualsDotProduct) {
  util::Rng rng(2);
  constexpr std::uint32_t kFanIn = 15;
  constexpr std::uint32_t kBits = 8;
  AdderTree tree(kFanIn);
  for (int trial = 0; trial < 50; ++trial) {
    // Random 8-bit weights and input bits; planes laid out bit-major.
    std::vector<std::uint8_t> weights(kFanIn);
    std::vector<std::uint8_t> inputs(kFanIn);
    for (std::uint32_t r = 0; r < kFanIn; ++r) {
      weights[r] = static_cast<std::uint8_t>(rng.below(256));
      inputs[r] = rng.chance(0.5) ? 1 : 0;
    }
    std::vector<std::uint8_t> planes(kBits * kFanIn);
    for (std::uint32_t b = 0; b < kBits; ++b) {
      for (std::uint32_t r = 0; r < kFanIn; ++r) {
        planes[b * kFanIn + r] =
            static_cast<std::uint8_t>(inputs[r] & ((weights[r] >> b) & 1));
      }
    }
    std::uint64_t expected = 0;
    for (std::uint32_t r = 0; r < kFanIn; ++r) {
      if (inputs[r]) expected += weights[r];
    }
    EXPECT_EQ(tree.shift_and_add(planes, kBits), expected);
  }
}

TEST(AdderTree, CountersTrackActivity) {
  AdderTree tree(8);
  const std::vector<std::uint8_t> ones(8, 1);
  EXPECT_EQ(tree.reductions(), 0U);
  tree.reduce(ones);
  tree.reduce(ones);
  EXPECT_EQ(tree.reductions(), 2U);
  EXPECT_EQ(tree.total_adder_ops(), 2U * 7U);
  tree.reset_counters();
  EXPECT_EQ(tree.reductions(), 0U);
  EXPECT_EQ(tree.total_adder_ops(), 0U);
}

TEST(AdderTree, ShiftAndAddCountsBitPlaneReductions) {
  AdderTree tree(4);
  const std::vector<std::uint8_t> planes(4 * 8, 1);
  tree.shift_and_add(planes, 8);
  EXPECT_EQ(tree.reductions(), 8U);
}

TEST(AdderTree, SparseShiftAndAddChargesFullFanIn) {
  // The sparse MAC path hands the tree per-plane product sums; the tree
  // still charges one full-fan-in reduction per plane, like the dense
  // shift-and-add (inactive rows feed zero products, not zero hardware).
  AdderTree tree(10);
  const std::vector<std::uint32_t> sums = {3, 7, 1};
  EXPECT_EQ(tree.shift_and_add_sparse(sums), 3U + (7U << 1) + (1U << 2));
  EXPECT_EQ(tree.reductions(), 3U);
  EXPECT_EQ(tree.total_adder_ops(), 3U * 9U);
}

TEST(AdderTree, SingleInputPassThrough) {
  AdderTree tree(1);
  EXPECT_EQ(tree.reduce(std::vector<std::uint8_t>{1}), 1U);
  EXPECT_EQ(tree.reduce(std::vector<std::uint8_t>{0}), 0U);
  EXPECT_EQ(tree.adders_per_reduction(), 0U);
}

TEST(AdderTree, ZeroFanInThrows) {
  EXPECT_THROW(AdderTree(0), ConfigError);
}

TEST(AdderTree, MaxValueNoOverflow) {
  // All ones at the paper's largest window (p_max=4: 24 rows, 8 bits):
  // result = 24 * 255.
  constexpr std::uint32_t kFanIn = 24;
  AdderTree tree(kFanIn);
  std::vector<std::uint8_t> planes(8 * kFanIn, 1);
  EXPECT_EQ(tree.shift_and_add(planes, 8),
            static_cast<std::uint64_t>(kFanIn) * 255U);
}

}  // namespace
}  // namespace cim::hw
