// Reference ("best-known proxy") tour pipeline.
//
// The paper reports optimal ratios against Concorde's best-known lengths.
// For synthetic instances there is no published optimum, so the reference
// pipeline produces a near-optimal tour with classical heuristics:
// greedy-edge construction, then alternating 2-opt and Or-opt to a joint
// local optimum. For real TSPLIB instances whose optimum is in the
// best-known registry, that published value is used instead.
#pragma once

#include <cstddef>

#include "tsp/instance.hpp"
#include "tsp/tour.hpp"

namespace cim::heuristics {

struct ReferenceOptions {
  std::size_t neighbor_k = 10;
  std::size_t rounds = 4;  ///< alternating 2-opt / Or-opt rounds
};

struct Reference {
  tsp::Tour tour;            ///< empty if a published optimum was used
  long long length = 0;      ///< reference length for ratio reporting
  bool from_registry = false;
};

/// Computes the reference for `instance` (see file comment).
Reference compute_reference(const tsp::Instance& instance,
                            const ReferenceOptions& options = {});

/// Heuristic-only variant (ignores the registry); used to measure the
/// quality of the pipeline itself.
Reference compute_heuristic_reference(const tsp::Instance& instance,
                                      const ReferenceOptions& options = {});

}  // namespace cim::heuristics
