// Golden-trajectory harness for the telemetry event stream (DESIGN.md
// §12): a fixed-seed pcb-grid instance is solved and the per-epoch
// "anneal.epoch" counter events (energy bits + swap/accept/noise counts)
// are folded into one fingerprint that is pinned here. The fingerprint
// must be bit-identical across CIMANNEAL_THREADS (the CMake registration
// reruns this binary under 1, 2 and 8), because the level solve emits
// every epoch event from the calling thread in program order — the pool
// may settle write-back chunks but never reorders the canonical event
// stream.
#include <bit>
#include <cstdint>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "anneal/clustered_annealer.hpp"
#include "anneal/ensemble.hpp"
#include "tsp/generator.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace cim::anneal {
namespace {

#if CIMANNEAL_TELEMETRY_ENABLED

namespace telemetry = util::telemetry;

// Pinned fingerprint for generate_drill_grid(120, 5), p = 3, seed = 9.
// If an intentional change to the annealer or the epoch-event schema
// moves it, rerun the test once and update the constant — but an
// unintentional move is exactly the regression this harness exists to
// catch.
constexpr std::uint64_t kSerialGolden = 1951260180603196579ULL;

AnnealerConfig golden_config() {
  AnnealerConfig config;
  config.clustering.p = 3;
  config.seed = 9;
  return config;
}

tsp::Instance golden_instance() { return tsp::generate_drill_grid(120, 5); }

/// Solves on a clean registry and folds every "anneal.epoch" event —
/// argument count plus the raw bit pattern of every argument value, in
/// emission order — into one hash_combine chain.
std::uint64_t solve_fingerprint(const AnnealerConfig& config) {
  const auto inst = golden_instance();
  telemetry::Registry& telem = telemetry::Registry::global();
  telem.reset();
  ClusteredAnnealer(config).solve(inst);

  std::uint64_t h = 0x5EEDULL;
  std::size_t epochs = 0;
  for (const telemetry::TraceEvent& event : telem.merged_events()) {
    if (event.name != "anneal.epoch" || event.phase != 'C') continue;
    ++epochs;
    h = util::hash_combine(h, event.args.size());
    for (const telemetry::TraceArg& arg : event.args) {
      h = util::hash_combine(h, std::bit_cast<std::uint64_t>(arg.value));
    }
  }
  EXPECT_GT(epochs, 0u) << "no anneal.epoch events recorded";
  return h;
}

/// The annealer's monotonic counters after one solve on a clean registry.
std::map<std::string, std::uint64_t> solve_counters(
    const EnsembleConfig& config) {
  const auto inst = golden_instance();
  telemetry::Registry& telem = telemetry::Registry::global();
  telem.reset();
  ReplicaEnsemble(config).solve(inst);
  std::map<std::string, std::uint64_t> counters;
  for (const char* name :
       {"anneal.swaps_attempted", "anneal.swaps_accepted",
        "anneal.uphill_accepted", "anneal.settle_cache_hits",
        "anneal.settle_cache_refreshes", "anneal.noise_draws",
        "anneal.update_cycles", "anneal.levels_solved", "anneal.solves",
        "ensemble.replicas_solved", "cim.storage.macs",
        "cim.storage.writeback_bits"}) {
    counters[name] = telem.counter(name).value();
  }
  EXPECT_GT(counters["anneal.swaps_attempted"], 0u);
  EXPECT_GT(counters["cim.storage.macs"], 0u);
  return counters;
}

TEST(TelemetryGolden, SerialTrajectoryMatchesPinnedFingerprint) {
  const std::uint64_t first = solve_fingerprint(golden_config());
  EXPECT_EQ(first, kSerialGolden);
  // And it is a property of the seed, not of registry or process state.
  EXPECT_EQ(solve_fingerprint(golden_config()), kSerialGolden);
}

TEST(TelemetryGolden, EnsembleCountersAgreePoolVsSerial) {
  // Replica events race into per-worker sinks (their order is not part
  // of the contract) but the monotonic counters are order-independent
  // sums, so threaded and serial ensembles must agree exactly.
  EnsembleConfig serial;
  serial.base = golden_config();
  serial.replicas = 3;
  serial.use_threads = false;
  EnsembleConfig threaded = serial;
  threaded.use_threads = true;
  EXPECT_EQ(solve_counters(serial), solve_counters(threaded));
}

#else  // !CIMANNEAL_TELEMETRY_ENABLED

TEST(TelemetryGolden, SkippedWhenTelemetryCompiledOff) {
  GTEST_SKIP() << "CIMANNEAL_TELEMETRY=OFF build: no event stream to pin";
}

#endif  // CIMANNEAL_TELEMETRY_ENABLED

}  // namespace
}  // namespace cim::anneal
