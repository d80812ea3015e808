#include "core/solver.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "test_helpers.hpp"
#include "tsp/fingerprint.hpp"
#include "tsp/generator.hpp"
#include "util/error.hpp"

namespace cim::core {
namespace {

TEST(CimSolver, EndToEndOutcome) {
  const auto inst = test::random_instance(200, 1);
  const CimSolver solver;
  const auto outcome = solver.solve(inst);
  EXPECT_TRUE(outcome.anneal.tour.is_valid(200));
  EXPECT_EQ(outcome.tour_length, outcome.anneal.length);
  ASSERT_TRUE(outcome.reference_length.has_value());
  ASSERT_TRUE(outcome.optimal_ratio.has_value());
  EXPECT_GT(*outcome.optimal_ratio, 0.99);
  EXPECT_LT(*outcome.optimal_ratio, 3.0);
  ASSERT_TRUE(outcome.ppa.has_value());
  EXPECT_GT(outcome.ppa->chip_area.um2(), 0.0);
  EXPECT_GT(outcome.ppa->latency.total().seconds(), 0.0);
  EXPECT_GT(outcome.solve_wall_seconds, 0.0);
}

TEST(CimSolver, ReferenceCanBeDisabled) {
  const auto inst = test::random_instance(100, 2);
  SolverConfig config;
  config.compute_reference = false;
  config.compute_ppa = false;
  const CimSolver solver(config);
  const auto outcome = solver.solve(inst);
  EXPECT_FALSE(outcome.reference_length.has_value());
  EXPECT_FALSE(outcome.optimal_ratio.has_value());
  EXPECT_FALSE(outcome.ppa.has_value());
}

TEST(CimSolver, ConfigValidation) {
  SolverConfig zero_p;
  zero_p.p_max = 0;
  EXPECT_THROW(CimSolver{zero_p}, ConfigError);
  SolverConfig fixed_one;
  fixed_one.strategy = cluster::Strategy::kFixed;
  fixed_one.p_max = 1;
  EXPECT_THROW(CimSolver{fixed_one}, ConfigError);
}

TEST(CimSolver, DesignPointMirrorsConfig) {
  SolverConfig config;
  config.p_max = 4;
  config.strategy = cluster::Strategy::kFixed;
  const CimSolver solver(config);
  const auto point = solver.design_point("x", 1000);
  EXPECT_EQ(point.p, 4U);
  EXPECT_EQ(point.strategy, hw::SizingStrategy::kFixed);
  EXPECT_EQ(point.n_cities, 1000U);
}

TEST(CimSolver, AnnealerConfigMirrorsConfig) {
  SolverConfig config;
  config.p_max = 2;
  config.noise = anneal::NoiseMode::kLfsr;
  config.chromatic_parallel = false;
  const CimSolver solver(config);
  const auto cfg = solver.annealer_config();
  EXPECT_EQ(cfg.clustering.p, 2U);
  EXPECT_EQ(cfg.noise, anneal::NoiseMode::kLfsr);
  EXPECT_FALSE(cfg.chromatic_parallel);
}

TEST(CimSolver, QualityBandOnPaperStyleInstance) {
  // The headline quality claim: < 25% overhead over near-optimal on the
  // paper's instance families (small mimic for test speed).
  const auto inst = tsp::make_paper_instance("pcb700");
  SolverConfig config;
  config.p_max = 3;
  const auto outcome = CimSolver(config).solve(inst);
  ASSERT_TRUE(outcome.optimal_ratio.has_value());
  EXPECT_LT(*outcome.optimal_ratio, 1.5);
}

TEST(CimSolver, SeedReproducibility) {
  const auto inst = test::random_instance(150, 3);
  SolverConfig config;
  config.seed = 777;
  config.compute_reference = false;
  config.compute_ppa = false;
  const auto a = CimSolver(config).solve(inst);
  const auto b = CimSolver(config).solve(inst);
  EXPECT_EQ(a.tour_length, b.tour_length);
  EXPECT_EQ(a.anneal.tour, b.anneal.tour);
}

TEST(CimSolver, PostRefineImprovesOrMatches) {
  const auto inst = test::random_instance(250, 8);
  SolverConfig raw;
  raw.compute_ppa = false;
  SolverConfig light = raw;
  light.post_refine = PostRefine::kLight;
  SolverConfig full = raw;
  full.post_refine = PostRefine::kFull;

  const auto r = CimSolver(raw).solve(inst);
  const auto l = CimSolver(light).solve(inst);
  const auto f = CimSolver(full).solve(inst);
  EXPECT_EQ(r.tour_length, r.hardware_length);
  EXPECT_LE(l.tour_length, l.hardware_length);
  EXPECT_LE(f.tour_length, f.hardware_length);
  EXPECT_LE(f.tour_length, l.tour_length);
  EXPECT_TRUE(f.anneal.tour.is_valid(250));
  EXPECT_EQ(f.tour_length, f.anneal.tour.length(inst));
}

TEST(CimSolver, ReplicasKeepBest) {
  const auto inst = test::random_instance(150, 9);
  SolverConfig config;
  config.replicas = 4;
  config.compute_ppa = false;
  config.compute_reference = false;
  const auto outcome = CimSolver(config).solve(inst);
  ASSERT_EQ(outcome.replica_lengths.size(), 4U);
  for (const long long len : outcome.replica_lengths) {
    EXPECT_GE(len, outcome.hardware_length);
  }
}

TEST(CimSolver, ZeroReplicasRejected) {
  SolverConfig config;
  config.replicas = 0;
  EXPECT_THROW(CimSolver{config}, ConfigError);
}

TEST(CimSolver, PpaDesignPointUsesMeasuredDepth) {
  const auto inst = test::random_instance(300, 4);
  const auto outcome = CimSolver().solve(inst);
  ASSERT_TRUE(outcome.ppa.has_value());
  EXPECT_EQ(outcome.ppa->depth, outcome.anneal.hierarchy_depth);
}

// solve() runs the reference beside the anneal on the shared pool. Its
// outcome must equal the serial composition: the annealer (or ensemble)
// on annealer_config(), then compute_reference on the same instance.
void expect_matches_serial(const SolverConfig& config,
                           const tsp::Instance& inst,
                           std::vector<tsp::CityId> initial_order = {}) {
  const CimSolver solver(config);
  const SolveOutcome outcome = solver.solve(inst);
  EXPECT_EQ(outcome.warm_started, !initial_order.empty());

  anneal::AnnealerConfig base = solver.annealer_config();
  base.initial_order = std::move(initial_order);
  anneal::AnnealResult serial;
  std::vector<long long> replica_lengths;
  if (config.replicas > 1) {
    anneal::EnsembleConfig ensemble;
    ensemble.base = base;
    ensemble.replicas = config.replicas;
    auto result = anneal::ReplicaEnsemble(ensemble).solve(inst);
    serial = std::move(result.best);
    replica_lengths = std::move(result.replica_lengths);
  } else {
    serial = anneal::ClusteredAnnealer(base).solve(inst);
  }

  EXPECT_EQ(outcome.anneal.tour, serial.tour);
  EXPECT_EQ(outcome.tour_length, serial.length);
  EXPECT_EQ(outcome.hardware_length, serial.length);
  EXPECT_EQ(outcome.replica_lengths, replica_lengths);

  if (config.compute_reference) {
    const heuristics::Reference ref = heuristics::compute_reference(inst);
    ASSERT_TRUE(outcome.reference_length.has_value());
    EXPECT_EQ(*outcome.reference_length, ref.length);
    ASSERT_TRUE(outcome.optimal_ratio.has_value());
    EXPECT_EQ(*outcome.optimal_ratio,
              tsp::optimal_ratio(serial.length, ref.length));
  } else {
    EXPECT_FALSE(outcome.reference_length.has_value());
    EXPECT_FALSE(outcome.optimal_ratio.has_value());
    EXPECT_EQ(outcome.reference_seconds, 0.0);
  }

  const hw::HardwareActivity& a = outcome.anneal.hw;
  const hw::HardwareActivity& b = serial.hw;
  EXPECT_EQ(a.update_cycles, b.update_cycles);
  EXPECT_EQ(a.writeback_cycles, b.writeback_cycles);
  EXPECT_EQ(a.swap_attempts, b.swap_attempts);
  EXPECT_EQ(a.storage.macs, b.storage.macs);
  EXPECT_EQ(a.storage.mac_bit_reads, b.storage.mac_bit_reads);
  EXPECT_EQ(a.storage.writeback_events, b.storage.writeback_events);
  EXPECT_EQ(a.storage.writeback_bits, b.storage.writeback_bits);
  EXPECT_EQ(a.storage.pseudo_read_flips, b.storage.pseudo_read_flips);
  EXPECT_EQ(a.dataflow.input_shift_events(), b.dataflow.input_shift_events());
  EXPECT_EQ(a.dataflow.input_bits_shifted(), b.dataflow.input_bits_shifted());
  EXPECT_EQ(a.dataflow.downstream_transfers(),
            b.dataflow.downstream_transfers());
  EXPECT_EQ(a.dataflow.upstream_transfers(), b.dataflow.upstream_transfers());
  EXPECT_EQ(a.dataflow.third_phase_transfers(),
            b.dataflow.third_phase_transfers());
  EXPECT_EQ(a.dataflow.edge_bits_transferred(),
            b.dataflow.edge_bits_transferred());
}

TEST(CimSolver, MatchesSerialComposition) {
  const auto inst = test::random_instance(400, 21);
  SolverConfig config;
  config.compute_ppa = false;
  expect_matches_serial(config, inst);
}

TEST(CimSolver, MatchesSerialCompositionWithReplicas) {
  const auto inst = test::random_instance(300, 22);
  SolverConfig config;
  config.replicas = 2;
  config.compute_ppa = false;
  expect_matches_serial(config, inst);
}

TEST(CimSolver, MatchesSerialCompositionWithoutReference) {
  const auto inst = test::random_instance(300, 23);
  SolverConfig config;
  config.compute_reference = false;
  expect_matches_serial(config, inst);
}

TEST(CimSolver, MatchesSerialCompositionOnWarmStartHit) {
  const auto inst = test::random_instance(300, 24);
  // One directory per process: ctest runs this binary under several
  // CIMANNEAL_THREADS values at once.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cim_solver_warm_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SolverConfig config;
  config.compute_ppa = false;
  config.warm_start_dir = dir.string();
  (void)CimSolver(config).solve(inst);  // primes the store

  store::WarmStartStore probe(config.warm_start_dir);
  auto order = probe.load_tour(tsp::instance_fingerprint(inst), inst.size());
  ASSERT_TRUE(order.has_value());
  expect_matches_serial(config, inst, std::move(*order));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cim::core
