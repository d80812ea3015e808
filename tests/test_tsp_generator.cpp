#include "tsp/generator.hpp"

#include <set>

#include <gtest/gtest.h>

#include "geo/kdtree.hpp"
#include "util/error.hpp"

namespace cim::tsp {
namespace {

bool all_distinct(const Instance& inst) {
  std::set<std::pair<double, double>> seen;
  for (const geo::Point p : inst.coords()) {
    if (!seen.insert({p.x, p.y}).second) return false;
  }
  return true;
}

TEST(Generator, UniformSizeAndBounds) {
  const auto inst = generate_uniform(500, 1, 100.0);
  EXPECT_EQ(inst.size(), 500U);
  for (const geo::Point p : inst.coords()) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LT(p.x, 101.0);  // distinctness jitter can push slightly past
  }
}

TEST(Generator, Deterministic) {
  const auto a = generate_uniform(100, 7);
  const auto b = generate_uniform(100, 7);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(a.coord(static_cast<CityId>(i)).x,
              b.coord(static_cast<CityId>(i)).x);
  }
}

TEST(Generator, SeedsDiffer) {
  const auto a = generate_uniform(100, 7);
  const auto b = generate_uniform(100, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < 100; ++i) {
    any_diff |= a.coord(static_cast<CityId>(i)).x !=
                b.coord(static_cast<CityId>(i)).x;
  }
  EXPECT_TRUE(any_diff);
}

class GeneratorFamilies
    : public ::testing::TestWithParam<const char*> {};

TEST_P(GeneratorFamilies, ProducesValidDistinctInstances) {
  const std::string prefix = GetParam();
  const auto inst = make_paper_instance(prefix + "700");
  EXPECT_EQ(inst.size(), 700U);
  EXPECT_TRUE(inst.has_coords());
  EXPECT_TRUE(all_distinct(inst));
}

INSTANTIATE_TEST_SUITE_P(Families, GeneratorFamilies,
                         ::testing::Values("pcb", "rl", "pla", "geo",
                                           "uniform"));

TEST(Generator, NamedPaperInstancesHaveCorrectSizes) {
  EXPECT_EQ(make_paper_instance("pcb3038").size(), 3038U);
  EXPECT_EQ(make_paper_instance("rl5915").size(), 5915U);
  EXPECT_EQ(make_paper_instance("rl5934").size(), 5934U);
}

TEST(Generator, NamedInstanceDeterministicByName) {
  const auto a = make_paper_instance("pcb442");
  const auto b = make_paper_instance("pcb442");
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.coord(static_cast<CityId>(i)).x,
              b.coord(static_cast<CityId>(i)).x);
  }
}

TEST(Generator, UnknownFamilyThrows) {
  EXPECT_THROW(make_paper_instance("zzz123"), ConfigError);
  EXPECT_THROW(make_paper_instance("noNumber"), ConfigError);
}

TEST(Generator, UnparsableSizeSuffixThrows) {
  // A suffix past the size_t range used to escape as std::out_of_range.
  EXPECT_THROW(make_paper_instance("pcb99999999999999999999999"),
               ConfigError);
  EXPECT_THROW(make_paper_instance("rl0"), ConfigError);
  EXPECT_THROW(check_paper_instance_name("pcb99999999999999999999999"),
               ConfigError);
  EXPECT_THROW(check_paper_instance_name("zzz123"), ConfigError);
  EXPECT_NO_THROW(check_paper_instance_name("pla85900"));
  EXPECT_NO_THROW(check_paper_instance_name("uniform12"));
}

TEST(Generator, ClusteredIsMoreClusteredThanUniform) {
  // Mean nearest-neighbour distance is smaller (relative to extent) for
  // clustered point sets of the same cardinality.
  const auto uniform = generate_uniform(800, 3, 10000.0);
  const auto clustered = generate_clustered(800, 8, 3, 10000.0);
  const auto mean_nn = [](const Instance& inst) {
    const geo::KdTree tree(inst.coords());
    double acc = 0.0;
    for (std::size_t i = 0; i < inst.size(); ++i) {
      const auto nn = tree.nearest(inst.coord(static_cast<CityId>(i)), i);
      acc += geo::euclidean(inst.coord(static_cast<CityId>(i)),
                            inst.coord(static_cast<CityId>(nn)));
    }
    return acc / static_cast<double>(inst.size());
  };
  EXPECT_LT(mean_nn(clustered), mean_nn(uniform));
}

TEST(Generator, DrillGridIsGridAligned) {
  // A large share of point pairs in a drill pattern share an x or y
  // coordinate (grid alignment); uniform instances essentially never do.
  const auto drill = generate_drill_grid(400, 5);
  std::size_t aligned = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    for (std::size_t j = i + 1; j < 200; ++j) {
      const auto a = drill.coord(static_cast<CityId>(i));
      const auto b = drill.coord(static_cast<CityId>(j));
      if (a.x == b.x || a.y == b.y) ++aligned;
    }
  }
  EXPECT_GT(aligned, 50U);
}

TEST(Generator, InvalidSizesThrow) {
  EXPECT_THROW(generate_uniform(0, 1), ConfigError);
  EXPECT_THROW(generate_clustered(10, 0, 1), ConfigError);
}

TEST(Generator, HaveRealTsplibFalseWithoutEnv) {
  ::unsetenv("CIMANNEAL_TSPLIB_DIR");
  EXPECT_FALSE(have_real_tsplib("pcb3038"));
}

}  // namespace
}  // namespace cim::tsp
