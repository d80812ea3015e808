#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "anneal/clustered_annealer.hpp"
#include "anneal/generic_annealer.hpp"
#include "anneal/maxcut_annealer.hpp"
#include "cluster/hierarchy.hpp"
#include "core/solver.hpp"
#include "geo/kdtree.hpp"
#include "heuristics/reference.hpp"
#include "inputs.hpp"
#include "ising/generic.hpp"
#include "ising/maxcut.hpp"
#include "ppa/report.hpp"
#include "qubo/io.hpp"
#include "store/warm_start.hpp"
#include "tsp/fingerprint.hpp"
#include "tsp/neighbors.hpp"
#include "tsp/tsplib.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace cim;

namespace {

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Shared state of both workload families: the tracer, the scratch
/// directory and the CimSolver call timings behind trace.overhead.
class WorkloadBase : public Workload {
 public:
  WorkloadBase(std::string name, std::string out_dir, Tracer& tracer)
      : name_(std::move(name)), out_dir_(std::move(out_dir)), tracer_(tracer) {
    fs::create_directories(out_dir_);
  }

  LayerValues run_layers() const override {
    LayerValues layers;
    layers["trace.overhead"] =
        ratio(median(traced_call_s_), median(plain_call_s_));
    return layers;
  }

 protected:
  /// `config` with the program's telemetry export switched on.
  core::SolverConfig traced_config(core::SolverConfig config) const {
    config.telemetry_out = out_dir_ + "/telemetry-" + name_ + ".json";
    return config;
  }

  std::string name_;
  std::string out_dir_;
  Tracer& tracer_;
  std::uint64_t next_solve_id_ = 1;
  std::vector<double> plain_call_s_;   ///< CimSolver calls, tracing off
  std::vector<double> traced_call_s_;  ///< the same with telemetry_out
};

// ----------------------------------------------------------------- TSP

/// Level-0 and upper-level seconds of the most recent anneal.solve in a
/// Chrome trace written through SolverConfig::telemetry_out.
std::pair<double, double> read_level_split(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read telemetry trace " + path);
  std::stringstream text;
  text << in.rdbuf();
  const util::Json doc = util::Json::parse(text.str());
  const util::Json& events = doc.at("traceEvents");
  std::size_t first = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    if (e.at("name").str() == "anneal.solve" && e.at("ph").str() == "B") {
      first = i;
    }
  }
  double level0 = 0.0;
  double upper = 0.0;
  double begin_us = 0.0;
  double level = 0.0;
  for (std::size_t i = first; i < events.size(); ++i) {
    const util::Json& e = events.at(i);
    if (e.at("name").str() != "anneal.level") continue;
    if (e.at("ph").str() == "B") {
      begin_us = e.at("ts").number();
      level = e.at("args").at("level").number();
    } else if (e.at("ph").str() == "E") {
      const double s = (e.at("ts").number() - begin_us) * 1e-6;
      (level == 0.0 ? level0 : upper) += s;
    }
  }
  return {level0, upper};
}

std::uint64_t update_cycles(const anneal::AnnealResult& result) {
  std::uint64_t total = 0;
  for (const anneal::LevelStats& level : result.levels) {
    total += level.update_cycles;
  }
  return total;
}

class TspWorkload final : public WorkloadBase {
 public:
  TspWorkload(std::string name, bool warm, std::vector<TspInput> inputs,
              std::string out_dir, Tracer& tracer)
      : WorkloadBase(std::move(name), std::move(out_dir), tracer),
        warm_(warm),
        inputs_(std::move(inputs)),
        store_dir_(out_dir_ + "/store-" + name_),
        composed_store_dir_(out_dir_ + "/store-" + name_ + "-composed") {}

  std::size_t instance_count() const override { return inputs_.size(); }

  void setup() override {
    instances_.clear();
    for (const TspInput& input : inputs_) {
      Span parse(tracer_, "tsp.parse");
      instances_.push_back(tsp::parse_tsplib(input.tsplib));
    }
    {
      Span build(tracer_, "core.build");
      core::SolverConfig config;
      if (warm_) config.warm_start_dir = store_dir_;
      solver_.emplace(config);
      traced_solver_.emplace(traced_config(config));
    }
    if (warm_) {
      Span prime(tracer_, "store.prime");
      fs::remove_all(store_dir_);
      for (const tsp::Instance& instance : instances_) {
        (void)solver_->solve(instance);
      }
    }
  }

  SolveSample solve(std::size_t i) override {
    const Clock::time_point start = Clock::now();
    const core::SolveOutcome out = solver_->solve(instances_[i]);
    const double seconds = seconds_since(start);
    return sample(i, seconds, out);
  }

  SolveSample traced_solve(std::size_t i, LayerValues& layers) override {
    const tsp::Instance& instance = instances_[i];
    const std::uint64_t id = next_solve_id_++;
    tracer_.set_solve(id);
    Span root(tracer_, "solve");

    Span plain(tracer_, "core.solve");
    const core::SolveOutcome out = solver_->solve(instance);
    const double plain_s = plain.stop();
    SolveSample result = sample(i, plain_s, out);

    // The traced call and the composition start from one store state.
    if (warm_) {
      fs::remove_all(composed_store_dir_);
      fs::copy(store_dir_, composed_store_dir_, fs::copy_options::recursive);
    }
    Span traced(tracer_, "core.solve_traced");
    const core::SolveOutcome ref_out = traced_solver_->solve(instance);
    const double traced_s = traced.stop();
    plain_call_s_.push_back(plain_s);
    traced_call_s_.push_back(traced_s);
    const auto [level0_s, upper_s] = read_level_split(
        core::telemetry_trace_path(traced_solver_->config().telemetry_out));

    // The composition: CimSolver::solve's calls, one span each.
    Span composed(tracer_, "composed");
    anneal::AnnealerConfig config = solver_->annealer_config();
    std::optional<store::WarmStartStore> store;
    std::string fingerprint;
    if (warm_) {
      {
        Span s(tracer_, "tsp.fingerprint");
        fingerprint = tsp::instance_fingerprint(instance);
      }
      Span s(tracer_, "store.load");
      store.emplace(composed_store_dir_);
      if (auto order = store->load_tour(fingerprint, instance.size())) {
        config.initial_order = std::move(*order);
      }
    }
    anneal::AnnealResult anneal_result;
    {
      Span s(tracer_, "anneal.solve");
      anneal_result = anneal::ClusteredAnnealer(config).solve(instance);
    }
    if (store) {
      Span s(tracer_, "store.save");
      const auto order = anneal_result.tour.order();
      store->store_tour(fingerprint, order, anneal_result.length);
    }
    heuristics::Reference reference;
    {
      Span s(tracer_, "heuristics.reference");
      reference = heuristics::compute_reference(instance);
    }
    std::optional<ppa::PpaReport> report;
    {
      Span s(tracer_, "ppa.report");
      report = ppa::measured_report(
          solver_->design_point(instance.name(), instance.size()),
          anneal_result.hw, anneal_result.hierarchy_depth);
    }
    composed.stop();

    if (result.failure.empty()) {
      result.failure = compare(ref_out, anneal_result, reference, *report);
    }

    // Replays: layers CimSolver reaches only inside one call, rebuilt
    // standalone on the same input.
    {
      Span replay(tracer_, "replay");
      {
        Span s(tracer_, "cluster.hierarchy");
        const cluster::Hierarchy hierarchy(instance, config.clustering);
      }
      {
        Span s(tracer_, "geo.knn");
        const geo::KdTree tree(instance.coords());
        for (std::size_t c = 0; c < instance.size(); ++c) {
          (void)tree.nearest_k(instance.coord(static_cast<tsp::CityId>(c)),
                               10, c);
        }
      }
      {
        Span s(tracer_, "tsp.neighbors");
        const tsp::NeighborLists lists(instance, 10,
                                       {.with_distances = true});
      }
    }
    root.stop();

    fill_layers(id, anneal_result, store, plain_s, level0_s, upper_s,
                layers);
    return result;
  }

  LayerValues run_layers() const override {
    LayerValues layers = WorkloadBase::run_layers();
    layers["tsp.parse_s"] = median(tracer_.durations("tsp.parse"));
    return layers;
  }

 private:
  SolveSample sample(std::size_t i, double seconds,
                     const core::SolveOutcome& out) const {
    SolveSample s;
    s.instance = i;
    s.seconds = seconds;
    s.vars = instances_[i].size();
    s.quality = out.optimal_ratio.value_or(0.0);
    s.hw_update_cycles = update_cycles(out.anneal);
    s.failure = check(inputs_[i], instances_[i], out);
    return s;
  }

  std::string check(const TspInput& input, const tsp::Instance& instance,
                    const core::SolveOutcome& out) const {
    const auto order = out.anneal.tour.order();
    if (!out.anneal.tour.is_valid(input.cities.size())) {
      return "tour is not a permutation of the cities";
    }
    const long long own = tour_length(input, order);
    if (own != out.tour_length) {
      return "tour_length " + std::to_string(out.tour_length) +
             " != recomputed " + std::to_string(own);
    }
    if (out.anneal.tour.length(instance) != own) {
      return "Tour::length disagrees with the recomputed length";
    }
    if (!out.reference_length || *out.reference_length <= 0 ||
        !out.optimal_ratio) {
      return "no reference length";
    }
    if (warm_ && !out.warm_started) return "warm solve missed the store";
    return {};
  }

  static std::string compare(const core::SolveOutcome& out,
                             const anneal::AnnealResult& anneal_result,
                             const heuristics::Reference& reference,
                             const ppa::PpaReport& report) {
    if (anneal_result.length != out.tour_length ||
        !(anneal_result.tour == out.anneal.tour)) {
      return "composed tour differs from CimSolver's";
    }
    if (update_cycles(anneal_result) != update_cycles(out.anneal)) {
      return "composed hw_update_cycles differ from CimSolver's";
    }
    if (reference.length != out.reference_length.value_or(-1)) {
      return "composed reference length differs from CimSolver's";
    }
    if (!out.ppa || report.energy.total().joules() !=
                        out.ppa->energy.total().joules()) {
      return "composed PPA report differs from CimSolver's";
    }
    return {};
  }

  void fill_layers(std::uint64_t id, const anneal::AnnealResult& r,
                   const std::optional<store::WarmStartStore>& store,
                   double plain_s, double level0_s, double upper_s,
                   LayerValues& layers) const {
    const double anneal_s = tracer_.seconds("anneal.solve", id);
    std::uint64_t attempted = 0, accepted = 0, memo_hits = 0, memo_misses = 0;
    std::uint64_t dcache_hits = 0, dcache_misses = 0, dcache_bytes = 0;
    for (const anneal::LevelStats& level : r.levels) {
      attempted += level.swaps_attempted;
      accepted += level.swaps_accepted;
      memo_hits += level.memo_hits;
      memo_misses += level.memo_misses;
      dcache_hits += level.dcache_hits;
      dcache_misses += level.dcache_misses;
      dcache_bytes += level.dcache_bytes;
    }
    const hw::StorageCounters& st = r.hw.storage;
    layers["anneal.solve_s"] = anneal_s;
    layers["anneal.level0_s"] = level0_s;
    layers["anneal.upper_levels_s"] = upper_s;
    layers["anneal.updates"] = static_cast<double>(attempted);
    layers["anneal.ns_per_update"] =
        ratio(anneal_s * 1e9, static_cast<double>(attempted));
    layers["anneal.accept_rate"] = ratio(static_cast<double>(accepted),
                                         static_cast<double>(attempted));
    layers["anneal.memo_hit_rate"] =
        ratio(static_cast<double>(memo_hits),
              static_cast<double>(memo_hits + memo_misses));
    layers["cim.macs"] = static_cast<double>(st.macs);
    layers["cim.mac_bit_reads"] = static_cast<double>(st.mac_bit_reads);
    layers["cim.writeback_bits"] = static_cast<double>(st.writeback_bits);
    layers["cim.ns_per_mac"] =
        ratio(anneal_s * 1e9, static_cast<double>(st.macs));
    layers["noise.flip_rate"] =
        ratio(static_cast<double>(st.pseudo_read_flips),
              static_cast<double>(st.mac_bit_reads));
    layers["cluster.hierarchy_s"] = tracer_.seconds("cluster.hierarchy", id);
    layers["cluster.depth"] = static_cast<double>(r.hierarchy_depth);
    layers["cluster.max_size"] = static_cast<double>(r.max_cluster_size);
    layers["geo.knn_s"] = tracer_.seconds("geo.knn", id);
    layers["tsp.neighbors_s"] = tracer_.seconds("tsp.neighbors", id);
    layers["tsp.dcache_hit_rate"] =
        ratio(static_cast<double>(dcache_hits),
              static_cast<double>(dcache_hits + dcache_misses));
    layers["tsp.dcache_bytes"] = static_cast<double>(dcache_bytes);
    layers["tsp.fingerprint_s"] = tracer_.seconds("tsp.fingerprint", id);
    layers["heuristics.reference_s"] =
        tracer_.seconds("heuristics.reference", id);
    layers["ppa.report_s"] = tracer_.seconds("ppa.report", id);
    layers["store.load_s"] = tracer_.seconds("store.load", id);
    layers["store.save_s"] = tracer_.seconds("store.save", id);
    if (store) {
      const store::WarmStartStats& stats = store->stats();
      layers["store.hit_rate"] =
          ratio(static_cast<double>(stats.hits),
                static_cast<double>(stats.hits + stats.misses));
    }
    double stages = 0.0;
    for (const char* stage :
         {"tsp.fingerprint", "store.load", "anneal.solve", "store.save",
          "heuristics.reference", "ppa.report"}) {
      stages += tracer_.seconds(stage, id);
    }
    layers["core.solve_s"] = plain_s;
    layers["core.unattributed_s"] = plain_s - stages;
  }

  bool warm_;
  std::vector<TspInput> inputs_;
  std::string store_dir_;
  std::string composed_store_dir_;
  std::vector<tsp::Instance> instances_;
  std::optional<core::CimSolver> solver_;
  std::optional<core::CimSolver> traced_solver_;
};

// --------------------------------------------------------------- Ising

/// The annealer configs CimSolver::solve_maxcut / solve_ising derive from
/// a SolverConfig (no warm start on these workloads).
anneal::MaxCutConfig maxcut_config(const core::SolverConfig& c) {
  anneal::MaxCutConfig cfg;
  cfg.schedule = c.schedule;
  cfg.sram = c.sram;
  cfg.noise = c.noise;
  cfg.weight_bits = c.weight_bits;
  cfg.seed = c.seed;
  cfg.record_trace = c.record_trace;
  return cfg;
}

anneal::GenericAnnealConfig generic_config(const core::SolverConfig& c) {
  anneal::GenericAnnealConfig cfg;
  cfg.schedule = c.schedule;
  cfg.sram = c.sram;
  cfg.noise = c.noise;
  cfg.strategy = c.group_strategy;
  cfg.group_block = c.group_block;
  cfg.weight_bits = c.weight_bits;
  cfg.seed = c.seed;
  cfg.record_trace = c.record_trace;
  return cfg;
}

bool valid_spins(std::span<const std::int8_t> spins, std::size_t n) {
  return spins.size() == n &&
         std::all_of(spins.begin(), spins.end(),
                     [](std::int8_t s) { return s == 1 || s == -1; });
}

class IsingWorkload final : public WorkloadBase {
 public:
  IsingWorkload(std::string name, std::vector<GraphInput> graphs,
                std::string out_dir, Tracer& tracer)
      : WorkloadBase(std::move(name), std::move(out_dir), tracer),
        graphs_(std::move(graphs)) {
    // The classical reference is the benchmark's own work, outside
    // setup_s like the input generation.
    for (const GraphInput& g : graphs_) {
      std::vector<ising::WeightedEdge> edges;
      for (const Edge& e : g.edges) edges.push_back({e.a, e.b, e.w});
      const ising::MaxCutProblem problem(g.name, g.n, std::move(edges));
      greedy_cut_.push_back(ising::greedy_maxcut(problem, 1));
    }
  }

  std::size_t instance_count() const override { return graphs_.size(); }

  void setup() override {
    problems_.clear();
    models_.clear();
    for (const GraphInput& g : graphs_) {
      Span parse(tracer_, "qubo.parse");
      problems_.push_back(qubo::parse_gset(g.gset, g.name));
      models_.push_back(qubo::parse_jh(g.jh, g.name));
    }
    Span build(tracer_, "core.build");
    solver_.emplace(core::SolverConfig{});
    traced_solver_.emplace(traced_config(core::SolverConfig{}));
  }

  SolveSample solve(std::size_t i) override {
    Clock::time_point start = Clock::now();
    const core::MaxCutOutcome cut = solver_->solve_maxcut(problems_[i]);
    double seconds = seconds_since(start);
    start = Clock::now();
    const core::IsingOutcome ising = solver_->solve_ising(models_[i]);
    seconds += seconds_since(start);
    return sample(i, seconds, cut, ising);
  }

  SolveSample traced_solve(std::size_t i, LayerValues& layers) override {
    const ising::MaxCutProblem& problem = problems_[i];
    const ising::GenericModel& model = models_[i];
    const std::uint64_t id = next_solve_id_++;
    tracer_.set_solve(id);
    Span root(tracer_, "solve");

    Span plain(tracer_, "core.solve");
    const core::MaxCutOutcome cut = solver_->solve_maxcut(problem);
    const core::IsingOutcome ising = solver_->solve_ising(model);
    const double plain_s = plain.stop();
    SolveSample result = sample(i, plain_s, cut, ising);

    Span traced(tracer_, "core.solve_traced");
    const core::MaxCutOutcome ref_cut = traced_solver_->solve_maxcut(problem);
    const core::IsingOutcome ref_ising = traced_solver_->solve_ising(model);
    const double traced_s = traced.stop();
    plain_call_s_.push_back(plain_s);
    traced_call_s_.push_back(traced_s);

    Span composed(tracer_, "composed");
    anneal::MaxCutResult mc;
    {
      Span s(tracer_, "anneal.maxcut");
      mc = anneal::MaxCutAnnealer(maxcut_config(solver_->config()))
               .solve(problem);
    }
    anneal::GenericResult gen;
    {
      Span s(tracer_, "anneal.generic");
      gen = anneal::GenericAnnealer(generic_config(solver_->config()))
                .solve(model);
    }
    composed.stop();
    if (result.failure.empty()) {
      if (mc.best_cut != ref_cut.cut || mc.cut != ref_cut.anneal.cut ||
          mc.update_cycles != ref_cut.anneal.update_cycles) {
        result.failure = "composed Max-Cut solve differs from CimSolver's";
      } else if (gen.best_energy_hw != ref_ising.energy_hw ||
                 gen.update_cycles != ref_ising.anneal.update_cycles) {
        result.failure = "composed Ising solve differs from CimSolver's";
      }
    }

    {
      Span replay(tracer_, "replay");
      Span s(tracer_, "ising.map");
      (void)ising::map_to_hardware(model);
    }
    root.stop();

    const double maxcut_s = tracer_.seconds("anneal.maxcut", id);
    const double generic_s = tracer_.seconds("anneal.generic", id);
    const double anneal_s = maxcut_s + generic_s;
    const double n = static_cast<double>(problem.size());
    const double updates = static_cast<double>(mc.sweeps + gen.sweeps) * n;
    hw::StorageCounters st = mc.storage;
    st += gen.storage;
    const auto memo_hits = static_cast<double>(mc.memo_hits + gen.memo_hits);
    const auto memo_all = memo_hits + static_cast<double>(mc.memo_misses +
                                                          gen.memo_misses);
    layers["anneal.solve_s"] = anneal_s;
    layers["anneal.maxcut_s"] = maxcut_s;
    layers["anneal.generic_s"] = generic_s;
    layers["anneal.updates"] = updates;
    layers["anneal.ns_per_update"] = ratio(anneal_s * 1e9, updates);
    layers["anneal.accept_rate"] =
        ratio(static_cast<double>(mc.flips + gen.flips), updates);
    layers["anneal.memo_hit_rate"] = ratio(memo_hits, memo_all);
    layers["cim.macs"] = static_cast<double>(st.macs);
    layers["cim.mac_bit_reads"] = static_cast<double>(st.mac_bit_reads);
    layers["cim.writeback_bits"] = static_cast<double>(st.writeback_bits);
    layers["cim.ns_per_mac"] =
        ratio(anneal_s * 1e9, static_cast<double>(st.macs));
    layers["noise.flip_rate"] =
        ratio(static_cast<double>(st.pseudo_read_flips),
              static_cast<double>(st.mac_bit_reads));
    layers["ising.map_s"] = tracer_.seconds("ising.map", id);
    layers["ising.groups"] = static_cast<double>(gen.group_count);
    layers["core.solve_s"] = plain_s;
    layers["core.unattributed_s"] = plain_s - anneal_s;
    return result;
  }

  LayerValues run_layers() const override {
    LayerValues layers = WorkloadBase::run_layers();
    layers["qubo.parse_s"] = median(tracer_.durations("qubo.parse"));
    return layers;
  }

 private:
  SolveSample sample(std::size_t i, double seconds,
                     const core::MaxCutOutcome& cut,
                     const core::IsingOutcome& ising) const {
    const GraphInput& g = graphs_[i];
    SolveSample s;
    s.instance = i;
    s.seconds = seconds;
    s.vars = g.n;
    s.hw_update_cycles = cut.anneal.update_cycles + ising.anneal.update_cycles;
    if (!valid_spins(cut.anneal.spins, g.n) ||
        !valid_spins(ising.anneal.best_spins, g.n)) {
      s.failure = "spins are not a ±1 assignment of every vertex";
      return s;
    }
    const long long own_cut = cut_value(g, cut.anneal.spins);
    if (own_cut != cut.anneal.cut ||
        problems_[i].cut_value(cut.anneal.spins) != own_cut) {
      s.failure = "cut " + std::to_string(cut.anneal.cut) +
                  " != recomputed " + std::to_string(own_cut);
    } else if (cut.cut != cut.anneal.best_cut || cut.cut < own_cut) {
      s.failure = "reported best cut is inconsistent";
    } else if (models_[i].energy(ising.anneal.best_spins) != ising.energy ||
               ising_energy(g, ising.anneal.best_spins) != ising.energy) {
      s.failure = "energy " + std::to_string(ising.energy) +
                  " != recomputed energy of the best spins";
    }
    // Greedy cut over the mean best cut of the two entry points.
    const double cim_cut =
        0.5 * static_cast<double>(cut.cut +
                                  cut_value(g, ising.anneal.best_spins));
    s.quality = ratio(static_cast<double>(greedy_cut_[i]), cim_cut);
    return s;
  }

  std::vector<GraphInput> graphs_;
  std::vector<long long> greedy_cut_;
  std::vector<ising::MaxCutProblem> problems_;
  std::vector<ising::GenericModel> models_;
  std::optional<core::CimSolver> solver_;
  std::optional<core::CimSolver> traced_solver_;
};

/// Instances per run: enough that the seed-fixed medians (quality_ratio,
/// hw_update_cycles) vary little across seeds, while every instance is
/// still solved at least once in a 20 s run.
std::size_t instances_per_run(const std::string& workload) {
  if (workload == "tsp_cold" || workload == "ising_sparse") return 4;
  if (workload == "tsp_warm") return 6;
  return 8;
}

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Scale& scale,
                                        const std::string& out_dir,
                                        Tracer& tracer) {
  const std::size_t count = instances_per_run(name);
  const auto label = [&](const std::string& family, std::size_t n,
                         std::size_t k) {
    return "perfbench-" + family + std::to_string(n) + "-s" +
           std::to_string(seed) + "-" + std::to_string(k);
  };
  if (name == "tsp_cold" || name == "tsp_warm") {
    const bool warm = name == "tsp_warm";
    const std::size_t n = warm ? scale.tsp_warm_cities : scale.tsp_cold_cities;
    std::vector<TspInput> inputs;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t s = mix(seed, (warm ? 0x9C00 : 0x7100) + k);
      inputs.push_back(warm ? make_drill_grid_tsp(n, s, label("pcb", n, k))
                            : make_clustered_tsp(n, s, label("rl", n, k)));
    }
    return std::make_unique<TspWorkload>(name, warm, std::move(inputs),
                                         out_dir, tracer);
  }
  if (name == "ising_sparse" || name == "ising_dense") {
    const bool dense = name == "ising_dense";
    const std::size_t n = dense ? scale.dense_vertices : scale.sparse_vertices;
    std::vector<GraphInput> graphs;
    for (std::size_t k = 0; k < count; ++k) {
      const std::uint64_t s = mix(seed, (dense ? 0xDE00 : 0x5900) + k);
      graphs.push_back(dense
                           ? make_complete_graph(n, s, label("K", n, k))
                           : make_sparse_signed_graph(n, 5.0, s,
                                                      label("G", n, k)));
    }
    return std::make_unique<IsingWorkload>(name, std::move(graphs), out_dir,
                                           tracer);
  }
  return nullptr;
}

}  // namespace perfbench
