// The four benchmark workloads (README.md says why each exists).
//
// A workload owns its generated inputs and, after setup(), the parsed
// instances and the core::CimSolver that solves them. solve() is one
// timed solve through the public CimSolver entry points, followed by the
// benchmark's own correctness checks. traced_solve() is the per-layer
// view of the same solve: it times the plain CimSolver call, repeats it
// with SolverConfig::telemetry_out set, then re-runs the solve as the
// composition of each layer's public functions in the order CimSolver
// calls them (each call in its own span) and fails unless the
// composition reproduces CimSolver's result exactly.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct SolveSample {
  std::size_t instance = 0;
  double seconds = 0.0;  ///< host time around the CimSolver call(s) only
  std::size_t vars = 0;  ///< cities or spins
  /// Objective ÷ classical reference (README.md, quality_ratio).
  double quality = 0.0;
  std::uint64_t hw_update_cycles = 0;
  /// Empty when every check passed; otherwise what failed.
  std::string failure;
};

/// Per-layer values of one traced solve, keyed by metric name.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::size_t instance_count() const = 0;

  /// Parses the inputs' text and builds the solver, discarding what an
  /// earlier setup() built; tsp_warm also primes a fresh store. Spans go
  /// to the tracer with solve id 0.
  virtual void setup() = 0;

  virtual SolveSample solve(std::size_t instance) = 0;
  virtual SolveSample traced_solve(std::size_t instance,
                                   LayerValues& layers) = 0;

  /// Per-layer values measured once per run rather than per solve
  /// (parse times of the set-ups, the trace-export overhead).
  virtual LayerValues run_layers() const = 0;
};

/// Workload sizes. The full sizes are the benchmark's; the small ones
/// only keep the smoke check quick.
struct Scale {
  std::size_t tsp_cold_cities = 6000;
  std::size_t tsp_warm_cities = 3000;
  std::size_t sparse_vertices = 1000;
  std::size_t dense_vertices = 512;
  static Scale small() { return {600, 300, 96, 48}; }
};

/// Generates the workload's inputs from `seed` (not part of setup_s).
/// Scratch files (the warm-start store, telemetry exports) go under
/// `out_dir`. Returns nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        const Scale& scale,
                                        const std::string& out_dir,
                                        Tracer& tracer);

}  // namespace perfbench
