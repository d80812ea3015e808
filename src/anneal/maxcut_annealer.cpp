#include "anneal/maxcut_annealer.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "cim/activity.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/thread_annotations.hpp"

namespace cim::anneal {

namespace telemetry = util::telemetry;

MaxCutAnnealer::MaxCutAnnealer(MaxCutConfig config)
    : config_(std::move(config)) {
  CIM_REQUIRE(config_.weight_bits >= 1 && config_.weight_bits <= 8,
              "weight precision must be 1..8 bits");
}

CIM_DETERMINISM_ROOT
MaxCutResult MaxCutAnnealer::solve(
    const ising::MaxCutProblem& problem) const {
  const telemetry::Scope solve_scope(
      telemetry::Registry::global(), "maxcut.solve",
      {{"vertices", static_cast<double>(problem.size())},
       {"seed", static_cast<double>(config_.seed)}});
  const std::size_t n = problem.size();
  CIM_REQUIRE(n >= 1, "MaxCut problem needs at least one vertex");
  const noise::AnnealSchedule schedule(config_.schedule);
  const noise::SramCellModel cell_model(
      config_.sram, util::hash_combine(config_.seed, 0x4C7));
  util::Rng rng(util::hash_combine(config_.seed, 0x3C1));

  // Quantise |w| to the weight precision.
  std::int32_t w_abs_max = 1;
  for (const auto& e : problem.edges()) {
    w_abs_max = std::max(w_abs_max, std::abs(e.w));
  }
  const double scale =
      static_cast<double>((1U << config_.weight_bits) - 1U) /
      static_cast<double>(w_abs_max);
  const auto quantise = [&](std::int32_t w) {
    return static_cast<std::uint8_t>(
        std::clamp(std::round(std::abs(w) * scale), 0.0,
                   static_cast<double>((1U << config_.weight_bits) - 1U)));
  };

  // Weight planes: positive and negative magnitudes, n×n, column v =
  // couplings into spin v.
  const auto rows = static_cast<std::uint32_t>(n);
  const auto cols = static_cast<std::uint32_t>(n);
  const noise::SramCellModel* weight_model =
      config_.noise == NoiseMode::kSramWeight ? &cell_model : nullptr;
  const std::uint64_t plane_cells =
      static_cast<std::uint64_t>(n) * n * config_.weight_bits;
  auto pos_storage = hw::make_fast_storage(rows, cols, weight_model, 0,
                                           config_.weight_bits);
  auto neg_storage = hw::make_fast_storage(rows, cols, weight_model,
                                           plane_cells, config_.weight_bits);
  {
    // The row-major images live only until both planes hold them.
    std::vector<std::uint8_t> pos(static_cast<std::size_t>(n) * n, 0);
    std::vector<std::uint8_t> neg(static_cast<std::size_t>(n) * n, 0);
    for (const auto& e : problem.edges()) {
      auto& plane = e.w >= 0 ? pos : neg;
      const std::uint8_t q = quantise(e.w);
      plane[static_cast<std::size_t>(e.a) * n + e.b] = q;
      plane[static_cast<std::size_t>(e.b) * n + e.a] = q;
    }
    pos_storage->write(pos);
    neg_storage->write(neg);
  }
  const std::array<hw::WeightStorage*, 2> planes = {pos_storage.get(),
                                                    neg_storage.get()};

  // Chromatic classes for parallel updates.
  const ising::IsingModel graph = problem.to_ising();
  const auto colors = graph.chromatic_partition();
  std::uint32_t color_count = 0;
  for (const auto c : colors) color_count = std::max(color_count, c + 1);
  // Each class's vertices in ascending order — a sweep's update order.
  std::vector<std::vector<std::uint32_t>> color_members(color_count);
  for (std::uint32_t v = 0; v < n; ++v) color_members[colors[v]].push_back(v);

  MaxCutResult result;
  result.color_count = color_count;
  result.sweeps = schedule.total_iterations();
  if (!config_.initial_spins.empty()) {
    CIM_REQUIRE(config_.initial_spins.size() == n,
                "initial_spins must have one spin per vertex");
    for (const ising::Spin s : config_.initial_spins) {
      CIM_REQUIRE(s == 1 || s == -1, "initial_spins entries must be ±1");
    }
    result.spins = config_.initial_spins;
  } else {
    result.spins = ising::random_spins(n, rng);
  }

  std::vector<std::uint8_t> sigma_plus(n);
  const std::vector<std::uint8_t> ones(n, 1);
  std::vector<std::int64_t> row_sum(n, 0);

  // Per-vertex partial-sum memo (DESIGN.md §16): the combined
  // (MAC+ − MAC−)(σ+) per column, stamped with an input-state generation
  // that advances on any flip or write-back. The per-sweep σ+ rebuild
  // copies the unchanged spin state and therefore does not advance it.
  // Sound because FastStorage weights are pure between write-backs.
  const bool memoize = config_.memoize_partial_sums;
  std::vector<std::int64_t> memo_value;
  std::vector<std::uint64_t> memo_stamp;  // 0 never matches (gens start at 1)
  std::uint64_t gen_counter = 1;
  std::uint64_t input_gen = 1;
  if (memoize) {
    memo_value.assign(n, 0);
    memo_stamp.assign(n, 0);
  }

  const auto refresh_row_sums = [&] {
    // One all-ones MAC per column per plane; static between write-backs.
    for (std::uint32_t v = 0; v < n; ++v) {
      row_sum[v] = pos_storage->mac(hw::ColIndex(v), ones) -
                   neg_storage->mac(hw::ColIndex(v), ones);
    }
  };

  long long cut = problem.cut_value(result.spins);
  result.best_cut = cut;

  for (std::size_t sweep = 0; sweep < schedule.total_iterations(); ++sweep) {
    const auto phase = schedule.at(sweep);
    if (phase.write_back) {
      hw::write_back_all(planes, phase);
      // Weights changed: every memoized field value is stale.
      input_gen = ++gen_counter;
      refresh_row_sums();
      result.update_cycles += rows;  // sequential row write
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      sigma_plus[v] = result.spins[v] > 0 ? 1 : 0;
    }

    for (const auto& members : color_members) {
      for (const std::uint32_t v : members) {
        // field_v = Σ_j w_vj σ_j = 2·(MAC+ − MAC−)(σ+) − row_sum.
        std::int64_t mac;
        if (memoize && memo_stamp[v] == input_gen) {
          // Repeat (column, σ+) pair: the hardware still reads both
          // planes in full; only the host-side reduction is skipped.
          pos_storage->charge_repeat_mac();
          neg_storage->charge_repeat_mac();
          mac = memo_value[v];
          ++result.memo_hits;
        } else {
          mac = pos_storage->mac(hw::ColIndex(v), sigma_plus) -
                neg_storage->mac(hw::ColIndex(v), sigma_plus);
          if (memoize) {
            memo_value[v] = mac;
            memo_stamp[v] = input_gen;
            ++result.memo_misses;
          }
        }
        const std::int64_t field = 2 * mac - row_sum[v];

        ising::Spin next = result.spins[v];
        switch (config_.noise) {
          case NoiseMode::kSramWeight:
          case NoiseMode::kSramSpin:  // spin noise degenerates to weight-free
          case NoiseMode::kNone:
            if (field > 0) next = -1;
            if (field < 0) next = 1;
            break;
          case NoiseMode::kLfsr: {
            // Metropolis on the flip: ΔH = −2 σ_v field.
            const auto delta = static_cast<double>(
                -2 * static_cast<std::int64_t>(result.spins[v]) * field);
            const double temperature =
                equivalent_temperature(cell_model, phase) *
                std::sqrt(static_cast<double>(problem.max_degree()));
            const bool accept =
                delta < 0.0 ||
                (temperature > 0.0 &&
                 rng.uniform() < std::exp(-delta / temperature));
            if (accept) next = static_cast<ising::Spin>(-result.spins[v]);
            break;
          }
        }
        if (next != result.spins[v]) {
          result.spins[v] = next;
          sigma_plus[v] = next > 0 ? 1 : 0;
          ++result.flips;
          // σ+ changed: memoized fields of every vertex are stale.
          input_gen = ++gen_counter;
        }
      }
      ++result.update_cycles;  // all spins of a colour in one cycle
    }

    if (config_.record_trace) {
      result.trace.push_back(problem.cut_value(result.spins));
      result.best_cut = std::max(result.best_cut, result.trace.back());
      if constexpr (telemetry::kEnabled) {
        telemetry::Registry::global().instant(
            "maxcut.sweep",
            {{"sweep", static_cast<double>(sweep)},
             {"cut", static_cast<double>(result.trace.back())}});
      }
    }
  }

  result.cut = problem.cut_value(result.spins);
  result.best_cut = std::max(result.best_cut, result.cut);
  result.storage += pos_storage->counters();
  result.storage += neg_storage->counters();

  if constexpr (telemetry::kEnabled) {
    telemetry::Registry& telem = telemetry::Registry::global();
    telem.counter("maxcut.solves").add(1);
    telem.counter("maxcut.sweeps").add(result.sweeps);
    telem.counter("maxcut.flips").add(result.flips);
    telem.counter("maxcut.memo_hits").add(result.memo_hits);
    telem.counter("maxcut.memo_misses").add(result.memo_misses);
    telem.counter("maxcut.update_cycles").add(result.update_cycles);
    telem.gauge("maxcut.last_best_cut")
        .set(static_cast<double>(result.best_cut));
    hw::publish_storage(result.storage, telem);
  }
  return result;
}

}  // namespace cim::anneal
