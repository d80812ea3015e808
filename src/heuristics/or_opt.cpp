#include "heuristics/or_opt.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/error.hpp"

namespace cim::heuristics {

using tsp::CityId;
using tsp::Instance;
using tsp::NeighborLists;
using tsp::Tour;

namespace {

/// Doubly linked tour representation; Or-opt moves are O(1) splices.
struct LinkedTour {
  std::vector<CityId> next;
  std::vector<CityId> prev;

  explicit LinkedTour(const Tour& tour) {
    const std::size_t n = tour.size();
    next.resize(n);
    prev.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const CityId c = tour.at(i);
      next[c] = tour.successor(i);
      prev[c] = tour.predecessor(i);
    }
  }

  Tour to_tour(std::size_t n) const {
    std::vector<CityId> order;
    order.reserve(n);
    CityId c = 0;
    for (std::size_t i = 0; i < n; ++i) {
      order.push_back(c);
      c = next[c];
    }
    return Tour(std::move(order));
  }
};

}  // namespace

OrOptResult or_opt(const Instance& instance, Tour& tour,
                   const OrOptOptions& options) {
  const std::size_t n = instance.size();
  OrOptResult result;
  result.initial_length = tour.length(instance);
  result.final_length = result.initial_length;
  if (n < 5) return result;

  std::unique_ptr<NeighborLists> owned;
  const NeighborLists* nbrs = options.neighbors;
  if (!nbrs) {
    owned = std::make_unique<NeighborLists>(instance, options.neighbor_k);
    nbrs = owned.get();
  }

  LinkedTour lt(tour);
  std::vector<char> dont_look(n, 0);
  const auto d = [&](CityId a, CityId b) { return instance.distance(a, b); };

  // Splices the segment s0..s1 (len cities, tour direction) out of the
  // tour and reinserts it between c and c_next, reversing it first when
  // requested.
  const auto splice = [&](CityId s0, CityId s1, std::size_t len, CityId before,
                          CityId after, CityId c, CityId c_next,
                          bool reversed) {
    lt.next[before] = after;
    lt.prev[after] = before;
    if (reversed) {
      // Reverse links inside the segment (len ≤ 3: cheap).
      CityId p = s0;
      CityId q = lt.next[p];
      for (std::size_t k = 1; k < len; ++k) {
        const CityId r = lt.next[q];
        lt.next[q] = p;
        lt.prev[p] = q;
        p = q;
        q = r;
      }
    }
    const CityId head = reversed ? s1 : s0;
    const CityId tail = reversed ? s0 : s1;
    lt.next[c] = head;
    lt.prev[head] = c;
    lt.next[tail] = c_next;
    lt.prev[c_next] = tail;
  };

  bool any_improved = true;
  while (any_improved && result.passes < options.max_passes) {
    any_improved = false;
    ++result.passes;
    for (CityId s0 = 0; s0 < n; ++s0) {
      if (dont_look[s0]) continue;
      bool improved_here = false;

      // Segment s0..s1 of length len starting at s0 (tour direction).
      CityId s1 = s0;
      for (std::size_t len = 1;
           len <= options.max_segment && !improved_here; ++len) {
        if (len > 1) s1 = lt.next[s1];
        if (s1 == lt.prev[s0]) break;  // segment would cover whole tour
        const CityId before = lt.prev[s0];
        const CityId after = lt.next[s1];
        if (after == before) break;

        const long long removed =
            d(before, s0) + d(s1, after) - d(before, after);
        if (removed <= 0) continue;

        // Try inserting between c and next[c] for candidate cities c near
        // the segment endpoints.
        for (const CityId* endpoint : {&s0, &s1}) {
          const auto cands = nbrs->of(*endpoint);
          const auto cand_d = nbrs->dist_of(*endpoint);
          for (std::size_t ci = 0; ci < cands.size(); ++ci) {
            const CityId c = cands[ci];
            // c must lie outside the segment.
            bool inside = false;
            CityId walk = s0;
            for (std::size_t k = 0; k < len; ++k) {
              if (walk == c) {
                inside = true;
                break;
              }
              walk = lt.next[walk];
            }
            if (inside || c == before) continue;
            const CityId c_next = lt.next[c];
            if (c_next == s0) continue;

            // Forward: c → s0 … s1 → c_next; reversed: c → s1 … s0 → c_next.
            // cand_d[ci] is d(*endpoint, c) precomputed.
            const long long d_c_end =
                cand_d.empty() ? d(c, *endpoint) : cand_d[ci];
            const long long d_c_s0 = *endpoint == s0 ? d_c_end : d(c, s0);
            const long long d_c_s1 = *endpoint == s1 ? d_c_end : d(c, s1);
            const long long base = d(c, c_next);
            const long long add_fwd = d_c_s0 + d(s1, c_next) - base;
            const long long add_rev = d_c_s1 + d(s0, c_next) - base;
            const bool reversed = add_rev < add_fwd;
            const long long added = reversed ? add_rev : add_fwd;
            if (added >= removed) continue;

            splice(s0, s1, len, before, after, c, c_next, reversed);
            result.final_length -= removed - added;
            ++result.moves;
            dont_look[before] = dont_look[after] = 0;
            dont_look[c] = dont_look[c_next] = 0;
            dont_look[s0] = dont_look[s1] = 0;
            improved_here = true;
            any_improved = true;
            break;
          }
          if (improved_here) break;
        }
      }
      if (!improved_here) dont_look[s0] = 1;
    }
  }

  tour = lt.to_tour(n);
  CIM_ASSERT_MSG(tour.is_valid(n), "or_opt corrupted the tour");
  CIM_ASSERT_MSG(result.final_length == tour.length(instance),
                 "incremental or_opt length drifted");
  return result;
}

}  // namespace cim::heuristics
