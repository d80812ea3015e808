#include "heuristics/reference.hpp"

#include <gtest/gtest.h>

#include "heuristics/construct.hpp"
#include "heuristics/exact.hpp"
#include "heuristics/lower_bound.hpp"
#include "test_helpers.hpp"
#include "util/log.hpp"

namespace cim::heuristics {
namespace {

TEST(Reference, BeatsConstructionAlone) {
  const auto inst = test::random_instance(300, 1);
  const auto ref = compute_heuristic_reference(inst);
  EXPECT_TRUE(ref.tour.is_valid(300));
  EXPECT_EQ(ref.length, ref.tour.length(inst));
  EXPECT_FALSE(ref.from_registry);
  EXPECT_LT(ref.length, greedy_edge(inst).length(inst));
  EXPECT_LT(ref.length, nearest_neighbor(inst).length(inst));
}

TEST(Reference, NearOptimalOnSmall) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto inst = test::random_instance(12, 600 + seed);
    const auto ref = compute_heuristic_reference(inst);
    const auto optimal = held_karp(inst);
    EXPECT_LE(ref.length, optimal.length(inst) * 21 / 20)  // within 5%
        << "seed " << seed;
    EXPECT_GE(ref.length, optimal.length(inst));
  }
}

TEST(Reference, WithinCertifiedBound) {
  const auto inst = test::random_instance(500, 2);
  const auto ref = compute_heuristic_reference(inst);
  const auto lb = held_karp_lower_bound(inst);
  EXPECT_GE(static_cast<double>(ref.length), lb.bound);
  EXPECT_LE(static_cast<double>(ref.length), 1.12 * lb.bound);
}

TEST(Reference, TinyInstances) {
  for (std::size_t n : {1U, 2U, 3U, 4U}) {
    const auto inst = test::random_instance(n, 700 + n);
    const auto ref = compute_heuristic_reference(inst);
    EXPECT_TRUE(ref.tour.is_valid(n));
    EXPECT_EQ(ref.length, ref.tour.length(inst));
  }
}

TEST(Reference, RegistryNotUsedForSyntheticMimics) {
  // make_paper_instance("pcb3038") is synthetic here (no TSPLIB dir), so
  // the published optimum must NOT be used as the reference.
  ::unsetenv("CIMANNEAL_TSPLIB_DIR");
  const auto inst = test::random_instance(50, 3);
  const auto ref = compute_reference(inst);
  EXPECT_FALSE(ref.from_registry);
  EXPECT_FALSE(ref.tour.empty());
}

TEST(Reference, MoreRoundsNeverWorse) {
  const auto inst = test::random_instance(250, 4);
  ReferenceOptions one;
  one.rounds = 1;
  ReferenceOptions four;
  four.rounds = 4;
  EXPECT_GE(compute_heuristic_reference(inst, one).length,
            compute_heuristic_reference(inst, four).length);
}

TEST(LogThreshold, SetAndRestore) {
  const auto original = util::log_threshold();
  util::set_log_threshold(util::LogLevel::kError);
  EXPECT_EQ(util::log_threshold(), util::LogLevel::kError);
  // Dropped messages must not crash.
  CIM_LOG_DEBUG << "below threshold " << 42;
  util::set_log_threshold(util::LogLevel::kOff);
  CIM_LOG_ERROR << "also dropped";
  util::set_log_threshold(original);
}

}  // namespace
}  // namespace cim::heuristics
