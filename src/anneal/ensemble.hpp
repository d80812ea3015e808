// Replica ensemble (related-work extension, §VI).
//
// Amorphica [25] and the PBM baseline [5] run multiple annealer replicas
// and keep the best outcome; replicas map naturally onto this design
// because each MB-scale chip region can anneal an independent copy. The
// ensemble runs R independently seeded solves (optionally on host
// threads) and reports the best tour plus the spread — the spread is also
// a useful robustness metric for the stochastic hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/clustered_annealer.hpp"

namespace cim::anneal {

struct EnsembleConfig {
  AnnealerConfig base;
  std::size_t replicas = 4;
  /// Solve replicas on the shared thread pool, at most its width in
  /// flight. Replica seeds derive from the replica index alone, so this
  /// never changes results.
  bool use_threads = true;
};

struct EnsembleResult {
  AnnealResult best;
  std::size_t best_replica = 0;
  std::vector<long long> replica_lengths;

  long long worst_length() const;
  double mean_length() const;
};

class ReplicaEnsemble {
 public:
  explicit ReplicaEnsemble(EnsembleConfig config);

  EnsembleResult solve(const tsp::Instance& instance) const;

 private:
  EnsembleConfig config_;
};

}  // namespace cim::anneal
