// 2-opt local search with k-nearest candidate lists and don't-look bits —
// the classical fast implementation that scales to ~10⁵ cities. Used to
// produce the near-optimal reference tours against which optimal ratios
// are reported.
#pragma once

#include <cstddef>

#include "tsp/instance.hpp"
#include "tsp/neighbors.hpp"
#include "tsp/tour.hpp"

namespace cim::heuristics {

struct TwoOptOptions {
  std::size_t neighbor_k = 10;    ///< candidate list size
  std::size_t max_passes = 64;    ///< hard cap on improvement sweeps
  const tsp::NeighborLists* neighbors = nullptr;  ///< optional prebuilt lists
};

struct TwoOptResult {
  long long initial_length = 0;
  long long final_length = 0;
  std::size_t improvements = 0;
  std::size_t passes = 0;
};

/// Improves `tour` in place until 2-opt-local-optimal w.r.t. the candidate
/// lists (or max_passes reached).
TwoOptResult two_opt(const tsp::Instance& instance, tsp::Tour& tour,
                     const TwoOptOptions& options = {});

}  // namespace cim::heuristics
