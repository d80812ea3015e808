// Command-line front-ends of the two solver CLIs (examples/qubo_solver and
// examples/tsplib_solver): each maps its options onto a SolverConfig and
// checks every numeric option against its range while parsing, so a bad
// value never reaches a solve (a negative --sweeps used to wrap to four
// billion sweeps). The warm-start directory is created while parsing too,
// so a path that cannot be one fails before any instance is loaded. Every
// rejection is a UsageError, which the CLIs report in one line with exit
// status 2.
#pragma once

#include <cstdint>

#include "core/solver.hpp"
#include "util/args.hpp"

namespace cim::core {

/// Accepted ranges of the CLIs' numeric options.
inline constexpr std::int64_t kCliMaxSweeps = 1'000'000;
inline constexpr std::int64_t kCliMaxBlock = std::int64_t{1} << 20;
/// The default semi-flexible clustering needs p_max >= 2.
inline constexpr std::int64_t kCliMinP = 2;
inline constexpr std::int64_t kCliMaxP = 32;

/// qubo_solver: --seed, --sweeps, --block, --strategy, --warm-dir. The
/// input file comes with --gset or --jh, so a positional argument is
/// rejected.
SolverConfig qubo_cli_config(const util::Args& args);

/// tsplib_solver: --p, --seed, --telemetry-out, --warm-start-dir. An
/// --instance name that tsp::make_paper_instance would reject (an unknown
/// family, a missing or out-of-range size suffix) is rejected here.
SolverConfig tsplib_cli_config(const util::Args& args);

}  // namespace cim::core
