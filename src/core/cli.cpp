#include "core/cli.hpp"

#include <filesystem>
#include <limits>
#include <string>
#include <system_error>

#include "tsp/generator.hpp"
#include "util/error.hpp"

namespace cim::core {

namespace {

std::uint64_t parse_seed(const util::Args& args) {
  return static_cast<std::uint64_t>(args.get_int_in(
      "seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
}

/// The warm-start store directory given with `option` ("" when absent),
/// created here so that an unusable path is rejected before an instance
/// is loaded or generated.
std::string parse_store_dir(const util::Args& args, const std::string& option) {
  const std::string dir = args.get_or(option, "");
  if (dir.empty()) return dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec || !std::filesystem::is_directory(dir, ec)) {
    const std::string reason = ec ? ec.message() : "not a directory";
    throw UsageError("--" + option + ": cannot create directory '" + dir +
                     "' (" + reason + ")");
  }
  return dir;
}

}  // namespace

SolverConfig qubo_cli_config(const util::Args& args) {
  if (!args.positional().empty()) {
    throw UsageError("unexpected argument '" + args.positional().front() +
                     "' (the input file goes after --gset or --jh)");
  }
  SolverConfig config;
  config.schedule.total_iterations = static_cast<std::uint32_t>(
      args.get_int_in("sweeps", 400, 1, kCliMaxSweeps));
  config.seed = parse_seed(args);
  config.group_block = static_cast<std::uint32_t>(
      args.get_int_in("block", 64, 1, kCliMaxBlock));
  config.warm_start_dir = parse_store_dir(args, "warm-dir");
  config.compute_reference = false;
  config.compute_ppa = false;
  const std::string strategy = args.get_or("strategy", "chromatic");
  const auto parsed = ising::parse_group_strategy(strategy);
  if (!parsed) {
    throw UsageError("unknown --strategy '" + strategy +
                     "' (chromatic, index-blocks, bfs-blocks, "
                     "degree-major)");
  }
  config.group_strategy = *parsed;
  return config;
}

SolverConfig tsplib_cli_config(const util::Args& args) {
  SolverConfig config;
  config.p_max =
      static_cast<std::uint32_t>(args.get_int_in("p", 3, kCliMinP, kCliMaxP));
  config.seed = parse_seed(args);
  config.telemetry_out = args.get_or("telemetry-out", "");
  config.warm_start_dir = parse_store_dir(args, "warm-start-dir");
  if (const auto name = args.get("instance")) {
    try {
      tsp::check_paper_instance_name(*name);
    } catch (const ConfigError& e) {
      throw UsageError(std::string("--instance: ") + e.what());
    }
  }
  return config;
}

}  // namespace cim::core
