#include "noise/sram_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "noise/monte_carlo.hpp"
#include "noise/schedule.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim::noise {
namespace {

TEST(SramModel, ErrorRateMonotoneInVdd) {
  const SramCellModel model;
  double prev = 1.0;
  for (double vdd = 0.20; vdd <= 0.80 + 1e-9; vdd += 0.05) {
    const double rate = model.expected_error_rate(vdd);
    EXPECT_LE(rate, prev + 1e-12) << "vdd=" << vdd;
    prev = rate;
  }
}

TEST(SramModel, NominalSupplyIsErrorFree) {
  const SramCellModel model;
  EXPECT_LT(model.expected_error_rate(0.80), 1e-6);
}

TEST(SramModel, LowSupplyApproachesFiftyPercent) {
  const SramCellModel model;
  const double rate = model.expected_error_rate(0.18);
  EXPECT_GT(rate, 0.30);
  EXPECT_LE(rate, 0.50 + 1e-12);
}

TEST(SramModel, ScheduleWindowHasUsefulDynamicRange) {
  // The §V ramp (300 → 580 mV) must traverse from significant noise to
  // near-zero noise.
  const SramCellModel model;
  EXPECT_GT(model.expected_error_rate(0.30), 0.02);
  EXPECT_LT(model.expected_error_rate(0.58), 1e-3);
}

TEST(SramModel, HigherBlCapacitanceSharperTransition) {
  // Fig. 6(b): higher C_BL → sharper sigmoid. Compare the transition
  // width (vdd span between 5% and 40% error) of two capacitances.
  SramNoiseParams low_c;
  low_c.bl_cap_ff = 5.0;
  SramNoiseParams high_c;
  high_c.bl_cap_ff = 80.0;
  const SramCellModel low(low_c, 1);
  const SramCellModel high(high_c, 1);

  // A sharper sigmoid falls off faster: in the transition region the
  // high-C_BL curve sits strictly below the low-C_BL curve, while the two
  // agree at the extremes (0 at nominal, →50% at very low supply).
  for (double v = 0.25; v <= 0.50 + 1e-9; v += 0.05) {
    EXPECT_LT(high.expected_error_rate(v), low.expected_error_rate(v))
        << "vdd=" << v;
  }
  EXPECT_NEAR(high.expected_error_rate(0.15), low.expected_error_rate(0.15),
              0.02);
  EXPECT_NEAR(high.expected_error_rate(0.80), low.expected_error_rate(0.80),
              1e-6);
}

TEST(SramModel, SnmShrinksWithSupplyAndMismatch) {
  const SramCellModel model;
  EXPECT_GT(model.snm(0.8, 0.0), model.snm(0.4, 0.0));
  EXPECT_GT(model.snm(0.8, 0.0), model.snm(0.8, 0.1));
  EXPECT_DOUBLE_EQ(model.snm(0.1, 0.0), 0.0);  // clamped
}

TEST(SramModel, FlipProbabilityBounds) {
  const SramCellModel model;
  for (double dvth : {-0.2, -0.05, 0.0, 0.05, 0.2}) {
    for (double vdd : {0.2, 0.4, 0.6, 0.8}) {
      const double p = model.flip_probability(vdd, dvth);
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(SramModel, TraitsAreDeterministicPerCell) {
  const SramCellModel model(SramNoiseParams{}, 42);
  const auto a = model.traits(1234);
  const auto b = model.traits(1234);
  EXPECT_EQ(a.delta_vth, b.delta_vth);
  EXPECT_EQ(a.preferred_bit, b.preferred_bit);
  const auto c = model.traits(1235);
  EXPECT_NE(a.delta_vth, c.delta_vth);
}

TEST(SramModel, TraitsPopulationStatistics) {
  const SramCellModel model(SramNoiseParams{}, 7);
  double sum = 0.0;
  double sum2 = 0.0;
  std::size_t preferred_ones = 0;
  constexpr int kCells = 20000;
  for (int c = 0; c < kCells; ++c) {
    const auto t = model.traits(static_cast<std::uint64_t>(c));
    sum += t.delta_vth;
    sum2 += t.delta_vth * t.delta_vth;
    preferred_ones += t.preferred_bit ? 1 : 0;
  }
  const double mean = sum / kCells;
  const double var = sum2 / kCells - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.002);
  EXPECT_NEAR(std::sqrt(var), model.params().sigma_vth, 0.002);
  EXPECT_NEAR(static_cast<double>(preferred_ones) / kCells, 0.5, 0.02);
}

TEST(SramModel, PreferredValueIsStable) {
  const SramCellModel model(SramNoiseParams{}, 3);
  for (std::uint64_t cell = 0; cell < 200; ++cell) {
    const auto t = model.traits(cell);
    // Writing the preferred value: never corrupted, at any supply.
    EXPECT_EQ(model.settled_value(cell, 0, 0.2, t.preferred_bit),
              t.preferred_bit);
  }
}

TEST(SramModel, FlipsGoTowardPreferredOnly) {
  const SramCellModel model(SramNoiseParams{}, 5);
  for (std::uint64_t cell = 0; cell < 500; ++cell) {
    const auto t = model.traits(cell);
    const bool anti = !t.preferred_bit;
    const bool settled = model.settled_value(cell, 1, 0.25, anti);
    // Either it stayed, or it flipped to the preferred value.
    EXPECT_TRUE(settled == anti || settled == t.preferred_bit);
  }
}

TEST(SramModel, SpatialPatternIsReproducible) {
  const SramCellModel model(SramNoiseParams{}, 11);
  for (std::uint64_t cell = 0; cell < 300; ++cell) {
    EXPECT_EQ(model.flips(cell, 4, 0.3), model.flips(cell, 4, 0.3));
  }
}

TEST(SramModel, EpochChangesDisturbance) {
  const SramCellModel model(SramNoiseParams{}, 13);
  std::size_t differing = 0;
  for (std::uint64_t cell = 0; cell < 2000; ++cell) {
    if (model.flips(cell, 0, 0.3) != model.flips(cell, 1, 0.3)) ++differing;
  }
  // Borderline cells flip in some epochs and not others, but the pattern
  // is mostly spatial (dominated by fixed ΔVth).
  EXPECT_GT(differing, 0U);
  EXPECT_LT(differing, 600U);
}

/// Every supply the default annealing schedule programs (0.30 V up to the
/// 0.80 V ceiling), plus the edge supplies snm_v0 and nominal.
std::vector<double> settle_supplies(const SramNoiseParams& params) {
  AnnealSchedule::Params sp;
  sp.total_iterations = sp.iterations_per_step * 16;
  const AnnealSchedule schedule(sp);
  std::vector<double> vdds = {params.snm_v0, params.nominal_vdd};
  for (std::size_t e = 0; e < schedule.epochs(); ++e) {
    vdds.push_back(schedule.at(e * sp.iterations_per_step).vdd);
  }
  std::sort(vdds.begin(), vdds.end());
  vdds.erase(std::unique(vdds.begin(), vdds.end()), vdds.end());
  return vdds;
}

TEST(PhaseSettler, SchedulePassesThroughEverySupply) {
  const auto vdds = settle_supplies(SramNoiseParams{});
  EXPECT_DOUBLE_EQ(vdds.front(), 0.18);
  EXPECT_DOUBLE_EQ(vdds.back(), 0.80);
  EXPECT_GE(vdds.size(), 14U);  // 0.30, 0.34, ..., 0.78, plus the edges
}

TEST(PhaseSettler, MatchesSettledValueCellByCell) {
  // The settle table is an exact rewrite of settled_value(): over 10^6
  // cell ids at every schedule supply, both written values and with and
  // without stuck cells, not one settled bit may differ.
  constexpr std::uint64_t kCells = 1'000'000;
  for (const double stuck_rate : {0.0, 0.01}) {
    SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const SramCellModel model(params, 0xC0FFEE);
    const auto vdds = settle_supplies(params);
    for (std::size_t v = 0; v < vdds.size(); ++v) {
      const std::uint64_t epoch = 3 + v;
      const PhaseSettler settler(model, epoch, vdds[v]);
      // Disjoint, high cell-id ranges per supply: 10^6 ids each.
      const std::uint64_t base = (std::uint64_t{1} << 40) + v * kCells;
      std::size_t mismatches = 0;
      std::size_t flipped = 0;
      for (std::uint64_t cell = base; cell < base + kCells; ++cell) {
        for (const bool written : {false, true}) {
          const bool want = model.settled_value(cell, epoch, vdds[v], written);
          mismatches += settler.settle(cell, written) != want ? 1U : 0U;
          flipped += want != written ? 1U : 0U;
        }
      }
      EXPECT_EQ(mismatches, 0U)
          << "vdd=" << vdds[v] << " stuck_rate=" << stuck_rate;
      if (vdds[v] < 0.5) {
        EXPECT_GT(flipped, 0U) << "vdd=" << vdds[v];
      }
    }
  }
}

TEST(PhaseSettler, SettleWordMatchesSettledValueBitByBit) {
  // The word form the storage write-back uses: the `noisy` low bits settle
  // exactly as settled_value() per cell, the rest pass through.
  constexpr std::uint64_t kWords = 100'000;
  util::Rng rng(0x5E771E);
  for (const double stuck_rate : {0.0, 0.01}) {
    SramNoiseParams params;
    params.stuck_cell_rate = stuck_rate;
    const SramCellModel model(params, 0xBADCE11);
    for (const double vdd : settle_supplies(params)) {
      const PhaseSettler settler(model, 9, vdd);
      std::size_t mismatches = 0;
      for (std::uint64_t word = 0; word < kWords; ++word) {
        const std::uint64_t first_cell = 8 * word + rng.below(8);
        const auto value = static_cast<std::uint8_t>(rng.below(256));
        const auto noisy = static_cast<std::uint32_t>(rng.range(1, 8));
        unsigned want = value;
        for (std::uint32_t b = 0; b < noisy; ++b) {
          const bool bit = (value >> b) & 1U;
          if (model.settled_value(first_cell + b, 9, vdd, bit) != bit) {
            want ^= 1U << b;
          }
        }
        mismatches +=
            settler.settle_word(first_cell, value, noisy) != want ? 1U : 0U;
      }
      EXPECT_EQ(mismatches, 0U)
          << "vdd=" << vdd << " stuck_rate=" << stuck_rate;
    }
  }
}

TEST(PhaseSettler, TableMatchesDoubleRuleForEveryPopcountPair) {
  // Exhaustive over the draw space: each (ΔVth popcount, disturbance
  // popcount) pair of a cell storing its anti-preferred value, against
  // the double-precision rule written out here. Covers every threshold
  // boundary, not just the ones a sample of cells happens to hit.
  SramNoiseParams sharp;
  sharp.bl_cap_ff = 80.0;
  SramNoiseParams blunt;
  blunt.bl_cap_ff = 5.0;
  blunt.sigma_vth = 0.09;
  SramNoiseParams still;
  still.disturb_base = 0.0;
  for (const SramNoiseParams& params :
       {SramNoiseParams{}, sharp, blunt, still}) {
    const SramCellModel model(params, 41);
    auto vdds = settle_supplies(params);
    for (int step = 0; step <= 200; ++step) vdds.push_back(0.005 * step);
    for (const double vdd : vdds) {
      const PhaseSettler settler(model, 0, vdd);
      for (int kv = 0; kv <= 64; ++kv) {
        const double delta_vth =
            params.sigma_vth * ((static_cast<double>(kv) - 32.0) / 4.0);
        const double margin = model.snm(vdd, delta_vth);
        for (int kd = 0; kd <= 64; ++kd) {
          const double disturb = params.sigma_disturb() *
                                 ((static_cast<double>(kd) - 32.0) / 4.0);
          const bool want = margin <= 0.0 || disturb > margin;
          ASSERT_EQ(settler.flips_at(kv, kd), want)
              << "vdd=" << vdd << " kv=" << kv << " kd=" << kd;
        }
      }
    }
  }
}

TEST(SramModel, InvalidParamsThrow) {
  SramNoiseParams bad;
  bad.sigma_vth = 0.0;
  EXPECT_THROW(SramCellModel(bad, 1), ConfigError);
  SramNoiseParams bad_cap;
  bad_cap.bl_cap_ff = 0.0;
  EXPECT_THROW(SramCellModel(bad_cap, 1), ConfigError);
  SramNoiseParams bad_disturb;
  bad_disturb.disturb_base = -0.01;
  EXPECT_THROW(SramCellModel(bad_disturb, 1), ConfigError);
}

TEST(MonteCarlo, MeasuredTracksAnalytic) {
  const SramCellModel model;
  SweepOptions options;
  options.samples = 4000;
  const auto points = error_rate_sweep(model, options);
  ASSERT_GT(points.size(), 8U);
  for (const auto& pt : points) {
    EXPECT_NEAR(pt.measured, pt.analytic, 0.035)
        << "vdd=" << pt.vdd;
  }
}

TEST(MonteCarlo, SweepCoversRequestedRange) {
  const SramCellModel model;
  SweepOptions options;
  options.samples = 100;
  const auto points = error_rate_sweep(model, options);
  EXPECT_NEAR(points.front().vdd, 0.80, 1e-9);
  EXPECT_NEAR(points.back().vdd, 0.20, 1e-9);
}

TEST(MonteCarlo, PaperSampleCountWorks) {
  // The paper uses 1000 Monte-Carlo samples per voltage.
  const SramCellModel model;
  SweepOptions options;
  options.samples = 1000;
  const auto points = error_rate_sweep(model, options);
  EXPECT_LT(points.front().measured, 0.01);  // 800 mV
  EXPECT_GT(points.back().measured, 0.25);   // 200 mV
}

TEST(MonteCarlo, InvalidOptionsThrow) {
  const SramCellModel model;
  SweepOptions bad;
  bad.samples = 0;
  EXPECT_THROW(error_rate_sweep(model, bad), ConfigError);
  SweepOptions reversed;
  reversed.vdd_start = 0.2;
  reversed.vdd_stop = 0.8;
  EXPECT_THROW(error_rate_sweep(model, reversed), ConfigError);
}

}  // namespace
}  // namespace cim::noise
