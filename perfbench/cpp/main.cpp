// perfbench — end-to-end solve benchmark of the cimanneal library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--scale full|small]
//
// One process runs one workload as a closed loop: one solve at a time,
// each started when the previous one returned. Inputs are generated from
// the seed, then set up (parsed, solver built) three times, and again
// between solves while set-up stays under 5 % of the run; setup_s is the
// median. Solves cycle over the workload's instances until --seconds have
// passed and every instance has been solved at least once.
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones
// (README.md defines every metric) and writes the benchmark's spans as
// Chrome-trace JSON under --out. The last line of standard output is the
// result object {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/simd.hpp"
#include "util/telemetry.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using cim::util::Json;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (run.py --smoke checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"solve_s", "s"},
    {"vars_per_s", "1/s"},
    {"quality_ratio", "ratio"},
    {"hw_update_cycles", "cycles"},
    {"pass_rate", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"anneal.solve_s", "s"},
    {"anneal.maxcut_s", "s"},
    {"anneal.generic_s", "s"},
    {"anneal.level0_s", "s"},
    {"anneal.upper_levels_s", "s"},
    {"anneal.ns_per_update", "ns"},
    {"anneal.updates", "count"},
    {"anneal.accept_rate", "ratio"},
    {"anneal.memo_hit_rate", "ratio"},
    {"cim.macs", "count"},
    {"cim.mac_bit_reads", "count"},
    {"cim.writeback_bits", "count"},
    {"cim.ns_per_mac", "ns"},
    {"noise.flip_rate", "ratio"},
    {"cluster.hierarchy_s", "s"},
    {"cluster.depth", "count"},
    {"cluster.max_size", "count"},
    {"geo.knn_s", "s"},
    {"tsp.parse_s", "s"},
    {"tsp.neighbors_s", "s"},
    {"tsp.dcache_hit_rate", "ratio"},
    {"tsp.dcache_bytes", "bytes"},
    {"tsp.fingerprint_s", "s"},
    {"heuristics.reference_s", "s"},
    {"ppa.report_s", "s"},
    {"qubo.parse_s", "s"},
    {"ising.map_s", "s"},
    {"ising.groups", "count"},
    {"store.load_s", "s"},
    {"store.save_s", "s"},
    {"store.hit_rate", "ratio"},
    {"core.solve_s", "s"},
    {"core.unattributed_s", "s"},
    {"trace.overhead", "ratio"},
    {"util.trace_events", "count"},
};

// Per-layer values fixed by the seed: reported from each instance's first
// traced solve, so they repeat exactly however many solves a run makes.
const std::set<std::string> kPerInstance = {
    "anneal.updates",     "anneal.accept_rate", "anneal.memo_hit_rate",
    "cim.macs",           "cim.mac_bit_reads",  "cim.writeback_bits",
    "noise.flip_rate",    "cluster.depth",      "cluster.max_size",
    "tsp.dcache_hit_rate", "tsp.dcache_bytes",  "ising.groups",
    "store.hit_rate"};

// Set-up runs kMinSetups times before the first solve. While set-up time
// stays under kSetupShare of the run, it is repeated between solves too, so
// the median of a cheap set-up sees the same host conditions as the solves.
constexpr int kMinSetups = 3;
constexpr double kSetupShare = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  Scale scale;
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> --out <dir> [--scale full|small]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) usage(std::string("missing value for ") + argv[i]);
    args[argv[i]] = argv[i + 1];
  }
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace",
                          "--out"}) {
    if (!args.count(key)) usage(std::string("missing ") + key);
  }
  o.workload = args["--workload"];
  o.out_dir = args["--out"];
  try {
    o.seed = std::stoull(args["--seed"]);
    o.seconds = std::stod(args["--seconds"]);
  } catch (const std::exception&) {
    usage("--seed and --seconds take numbers");
  }
  if (args["--trace"] != "0" && args["--trace"] != "1") {
    usage("--trace takes 0 or 1");
  }
  o.trace = args["--trace"] == "1";
  if (args.count("--scale") && args["--scale"] == "small") {
    o.scale = Scale::small();
  } else if (args.count("--scale") && args["--scale"] != "full") {
    usage("--scale takes full or small");
  }
  return o;
}

/// Pins the knobs whose defaults come from the environment, so an
/// inherited shell variable cannot change the program being measured,
/// and returns what was pinned for the record.
Json pin_environment() {
  for (const char* name : {"CIMANNEAL_VECTOR_KERNEL", "CIMANNEAL_MEMOIZE",
                           "CIMANNEAL_TSPLIB_DIR", "CIMANNEAL_LOG"}) {
    unsetenv(name);
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  const long nproc = online > 0 ? online : 1;
  const long threads = std::min<long>(nproc, 4);
  setenv("CIMANNEAL_THREADS", std::to_string(threads).c_str(), 1);

  std::string simd = "portable";
#if defined(CIMANNEAL_SIMD_X86_DISPATCH)
  if (cim::util::simd::detail::have_avx2()) {
    simd = "avx2";
  } else if (cim::util::simd::detail::have_popcnt()) {
    simd = "popcnt";
  }
#elif defined(CIMANNEAL_SIMD_NEON)
  simd = "neon";
#endif
  Json env = Json::object();
  env["CIMANNEAL_THREADS"] = static_cast<long long>(threads);
  env["CIMANNEAL_VECTOR_KERNEL"] = "unset (default)";
  env["CIMANNEAL_MEMOIZE"] = "unset (default)";
  env["nproc"] = static_cast<long long>(nproc);
  env["simd_tier"] = simd;
  env["telemetry_enabled"] = cim::util::telemetry::kEnabled;
  env["build_type"] = PERFBENCH_BUILD_TYPE;
  return env;
}

/// Median over instances of each instance's first value.
double per_instance_median(const std::vector<SolveSample>& samples,
                           const std::vector<double>& values) {
  std::set<std::size_t> seen;
  std::vector<double> firsts;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (seen.insert(samples[i].instance).second) firsts.push_back(values[i]);
  }
  return median(firsts);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  Json config = Json::object();
  config["workload"] = opts.workload;
  config["seed"] = opts.seed;
  config["seconds"] = opts.seconds;
  config["trace"] = opts.trace;
  config["environment"] = pin_environment();

  Tracer tracer;
  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(opts.workload, opts.seed, opts.scale,
                             opts.out_dir, tracer);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: generating inputs failed: " << e.what() << '\n';
    return 1;
  }
  if (!workload) usage("unknown workload " + opts.workload);

  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  const Clock::time_point run_start = Clock::now();
  const auto set_up = [&] {
    tracer.set_solve(0);
    const Clock::time_point start = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_since(start));
    setup_total_s += setup_s.back();
  };

  std::size_t attempted = 0;
  std::vector<SolveSample> samples;  // the solves that passed every check
  std::vector<LayerValues> layer_samples;
  const std::size_t count = workload->instance_count();
  try {
    for (int r = 0; r < kMinSetups; ++r) set_up();
    const Clock::time_point loop_start = Clock::now();
    for (std::size_t i = 0;
         i < count || seconds_since(loop_start) < opts.seconds; ++i) {
      SolveSample sample;
      LayerValues layers;
      try {
        sample = opts.trace ? workload->traced_solve(i % count, layers)
                            : workload->solve(i % count);
      } catch (const std::exception& e) {
        sample.instance = i % count;
        sample.failure = std::string("threw: ") + e.what();
      }
      ++attempted;
      if (sample.failure.empty()) {
        samples.push_back(sample);
        layer_samples.push_back(std::move(layers));
      } else {
        // A failed solve reports no time, quality or counts.
        std::cerr << "perfbench: solve " << i << " (instance " << i % count
                  << ") failed: " << sample.failure << '\n';
      }
      while (setup_total_s < kSetupShare * seconds_since(run_start)) {
        set_up();
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: setup failed: " << e.what() << '\n';
    return 1;
  }
  const std::size_t failed = attempted - samples.size();

  std::vector<double> seconds, rates, quality, cycles;
  for (const SolveSample& s : samples) {
    seconds.push_back(s.seconds);
    rates.push_back(s.seconds > 0.0 ? static_cast<double>(s.vars) / s.seconds
                                    : 0.0);
    quality.push_back(s.quality);
    cycles.push_back(static_cast<double>(s.hw_update_cycles));
  }

  std::map<std::string, double> values;
  const MetricDef* defs = opts.trace ? kPerLayer : kEndToEnd;
  const std::size_t def_count =
      opts.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (opts.trace) {
    for (std::size_t d = 0; d < def_count; ++d) {
      const std::string name = defs[d].name;
      std::vector<double> v;
      for (const LayerValues& layers : layer_samples) {
        const auto it = layers.find(name);
        v.push_back(it == layers.end() ? 0.0 : it->second);
      }
      values[name] = kPerInstance.count(name) ? per_instance_median(samples, v)
                                              : median(v);
    }
    for (const auto& [name, value] : workload->run_layers()) {
      values[name] = value;
    }
    values["util.trace_events"] = static_cast<double>(
        cim::util::telemetry::Registry::global().merged_events().size());
    const std::string trace_path = opts.out_dir + "/" + opts.workload +
                                   "-seed" + std::to_string(opts.seed) +
                                   ".trace.json";
    tracer.save_chrome_trace(trace_path);
    config["chrome_trace"] = trace_path;
  } else {
    values["setup_s"] = median(setup_s);
    values["solve_s"] = median(seconds);
    values["vars_per_s"] = median(rates);
    values["quality_ratio"] = per_instance_median(samples, quality);
    values["hw_update_cycles"] = per_instance_median(samples, cycles);
    values["pass_rate"] = static_cast<double>(samples.size()) /
                          static_cast<double>(attempted);
    values["peak_rss_mb"] = peak_rss_mb();
  }

  config["solves"] = attempted;
  config["instances"] = count;
  config["setup_samples_s"] = Json::array();
  for (const double s : setup_s) config["setup_samples_s"].push_back(s);
  config["solve_samples_s"] = Json::array();
  for (const double s : seconds) config["solve_samples_s"].push_back(s);
  std::cout << "config " << config.dump(-1) << '\n';

  Json metrics = Json::object();
  for (std::size_t d = 0; d < def_count; ++d) {
    Json m = Json::object();
    m["value"] = values[defs[d].name];
    m["unit"] = defs[d].unit;
    metrics[defs[d].name] = std::move(m);
  }
  Json result = Json::object();
  result["correct"] = failed == 0;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(metrics);
  std::cout << result.dump(-1) << std::endl;
  return 0;
}
