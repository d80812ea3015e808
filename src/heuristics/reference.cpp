#include "heuristics/reference.hpp"

#include "heuristics/construct.hpp"
#include "heuristics/or_opt.hpp"
#include "heuristics/two_opt.hpp"
#include "tsp/best_known.hpp"
#include "tsp/generator.hpp"
#include "tsp/neighbors.hpp"
#include "util/log.hpp"

namespace cim::heuristics {

Reference compute_heuristic_reference(const tsp::Instance& instance,
                                      const ReferenceOptions& options) {
  Reference ref;
  if (instance.size() < 4) {
    ref.tour = greedy_edge(instance, options.neighbor_k);
    ref.length = ref.tour.length(instance);
    return ref;
  }

  // One candidate list, with distances, serves the construction and every
  // 2-opt/Or-opt round: the scans read d(city, cand) from the blocked
  // arrays instead of recomputing the metric per visit.
  const tsp::NeighborLists nbrs(instance, options.neighbor_k,
                                {.with_distances = true});
  ref.tour = greedy_edge(instance, nbrs);
  TwoOptOptions two;
  two.neighbors = &nbrs;
  OrOptOptions oro;
  oro.neighbors = &nbrs;

  long long length = ref.tour.length(instance);
  for (std::size_t round = 0; round < options.rounds; ++round) {
    const auto t = two_opt(instance, ref.tour, two);
    const auto o = or_opt(instance, ref.tour, oro);
    if (o.final_length == length && t.improvements == 0 && o.moves == 0) {
      break;
    }
    length = o.final_length;
  }
  ref.length = length;
  return ref;
}

Reference compute_reference(const tsp::Instance& instance,
                            const ReferenceOptions& options) {
  // Published optima only apply when the instance really is the TSPLIB
  // original, not our synthetic mimic of it.
  if (tsp::have_real_tsplib(instance.name())) {
    if (const auto best = tsp::best_known_length(instance.name())) {
      Reference ref;
      ref.length = *best;
      ref.from_registry = true;
      CIM_LOG_INFO << "using published best-known length for "
                   << instance.name() << ": " << *best;
      return ref;
    }
  }
  return compute_heuristic_reference(instance, options);
}

}  // namespace cim::heuristics
