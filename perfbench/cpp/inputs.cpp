#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <utility>

namespace perfbench {

std::uint64_t Stream::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Stream::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Stream::below(std::uint64_t n) { return next() % n; }

double Stream::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]: log() stays finite
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  Stream s(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  s.next();
  return s.next();
}

namespace {

/// Adds (x, y) when inside [0, extent)² and not yet taken.
bool add_city(std::vector<City>& cities,
              std::set<std::pair<long long, long long>>& taken, double x,
              double y, long long extent) {
  const long long ix = std::llround(x);
  const long long iy = std::llround(y);
  if (ix < 0 || iy < 0 || ix >= extent || iy >= extent) return false;
  if (!taken.emplace(ix, iy).second) return false;
  cities.push_back({ix, iy});
  return true;
}

std::string to_tsplib(const std::string& name, const std::string& comment,
                      const std::vector<City>& cities) {
  std::string text = "NAME : " + name + "\nCOMMENT : " + comment +
                     "\nTYPE : TSP\nDIMENSION : " +
                     std::to_string(cities.size()) +
                     "\nEDGE_WEIGHT_TYPE : EUC_2D\nNODE_COORD_SECTION\n";
  for (std::size_t i = 0; i < cities.size(); ++i) {
    text += std::to_string(i + 1) + ' ' + std::to_string(cities[i].x) + ' ' +
            std::to_string(cities[i].y) + '\n';
  }
  text += "EOF\n";
  return text;
}

void finish_graph(GraphInput& g) {
  g.gset = std::to_string(g.n) + ' ' + std::to_string(g.edges.size()) + '\n';
  g.jh = std::to_string(g.n) + ' ' + std::to_string(g.edges.size()) + '\n';
  for (const Edge& e : g.edges) {
    g.gset += std::to_string(e.a + 1) + ' ' + std::to_string(e.b + 1) + ' ' +
              std::to_string(e.w) + '\n';
    g.jh += std::to_string(e.a) + ' ' + std::to_string(e.b) + ' ' +
            std::to_string(-e.w) + '\n';
  }
}

}  // namespace

TspInput make_clustered_tsp(std::size_t n, std::uint64_t seed,
                            const std::string& name) {
  constexpr long long kExtent = 100000;
  Stream rng(seed);
  struct Blob {
    double x, y, weight, radius;
  };
  const std::size_t blob_count = std::max<std::size_t>(n / 150, 1);
  std::vector<Blob> blobs(blob_count);
  double weight_sum = 0.0;
  for (Blob& b : blobs) {
    b.x = (0.05 + 0.9 * rng.uniform()) * kExtent;
    b.y = (0.05 + 0.9 * rng.uniform()) * kExtent;
    b.weight = std::exp(rng.normal());
    weight_sum += b.weight;
  }
  for (Blob& b : blobs) {
    const double share = b.weight / weight_sum * static_cast<double>(blob_count);
    b.radius = 0.02 * kExtent * std::sqrt(std::max(share, 0.01));
  }

  TspInput out;
  out.name = name;
  std::set<std::pair<long long, long long>> taken;
  while (out.cities.size() < n) {
    if (rng.uniform() < 0.9) {
      double pick = rng.uniform() * weight_sum;
      std::size_t i = 0;
      while (i + 1 < blobs.size() && pick > blobs[i].weight) {
        pick -= blobs[i].weight;
        ++i;
      }
      add_city(out.cities, taken, blobs[i].x + rng.normal() * blobs[i].radius,
               blobs[i].y + rng.normal() * blobs[i].radius, kExtent);
    } else {
      add_city(out.cities, taken, rng.uniform() * kExtent,
               rng.uniform() * kExtent, kExtent);
    }
  }
  out.tsplib = to_tsplib(name, "clustered rl-family mimic", out.cities);
  return out;
}

TspInput make_drill_grid_tsp(std::size_t n, std::uint64_t seed,
                             const std::string& name) {
  constexpr long long kExtent = 10000;
  constexpr double kPitches[] = {25.0, 50.0, 100.0};
  Stream rng(seed);
  TspInput out;
  out.name = name;
  std::set<std::pair<long long, long long>> taken;
  while (out.cities.size() < n) {
    const double bw = (0.04 + 0.14 * rng.uniform()) * kExtent;
    const double bh = (0.04 + 0.14 * rng.uniform()) * kExtent;
    const double pitch = kPitches[rng.below(std::size(kPitches))];
    // Block origins snap to the pitch, so holes of one pitch share a grid.
    const double ox =
        std::floor(rng.uniform() * (kExtent - bw) / pitch) * pitch;
    const double oy =
        std::floor(rng.uniform() * (kExtent - bh) / pitch) * pitch;
    const double fill = 0.3 + 0.6 * rng.uniform();
    const auto cols = std::max<long long>(std::llround(bw / pitch), 1);
    const auto rows = std::max<long long>(std::llround(bh / pitch), 1);
    for (long long r = 0; r < rows && out.cities.size() < n; ++r) {
      for (long long c = 0; c < cols && out.cities.size() < n; ++c) {
        if (rng.uniform() >= fill) continue;
        add_city(out.cities, taken, ox + static_cast<double>(c) * pitch,
                 oy + static_cast<double>(r) * pitch, kExtent);
      }
    }
  }
  out.tsplib = to_tsplib(name, "drill-grid pcb-family mimic", out.cities);
  return out;
}

long long tour_length(const TspInput& input,
                      std::span<const std::uint32_t> order) {
  long long total = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const City& a = input.cities[order[i]];
    const City& b = input.cities[order[(i + 1) % order.size()]];
    const auto dx = static_cast<double>(a.x - b.x);
    const auto dy = static_cast<double>(a.y - b.y);
    total += std::llround(std::sqrt(dx * dx + dy * dy));
  }
  return total;
}

GraphInput make_sparse_signed_graph(std::size_t n, double avg_degree,
                                    std::uint64_t seed,
                                    const std::string& name) {
  Stream rng(seed);
  GraphInput g;
  g.name = name;
  g.n = n;
  const double p = avg_degree / static_cast<double>(n - 1);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      if (rng.uniform() < p) {
        g.edges.push_back({a, b, rng.uniform() < 0.5 ? -1 : 1});
      }
    }
  }
  finish_graph(g);
  return g;
}

GraphInput make_complete_graph(std::size_t n, std::uint64_t seed,
                               const std::string& name) {
  Stream rng(seed);
  GraphInput g;
  g.name = name;
  g.n = n;
  g.edges.reserve(n * (n - 1) / 2);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      g.edges.push_back({a, b, rng.uniform() < 0.5 ? -1 : 1});
    }
  }
  finish_graph(g);
  return g;
}

long long cut_value(const GraphInput& graph,
                    std::span<const std::int8_t> spins) {
  long long cut = 0;
  for (const Edge& e : graph.edges) {
    if (spins[e.a] != spins[e.b]) cut += e.w;
  }
  return cut;
}

double ising_energy(const GraphInput& graph,
                    std::span<const std::int8_t> spins) {
  long long energy = 0;
  for (const Edge& e : graph.edges) {
    energy += static_cast<long long>(e.w) * spins[e.a] * spins[e.b];
  }
  return static_cast<double>(energy);
}

}  // namespace perfbench
