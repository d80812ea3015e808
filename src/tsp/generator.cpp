#include "tsp/generator.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string_view>
#include <system_error>

#include "tsp/tsplib.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/random.hpp"

namespace cim::tsp {

namespace {

using util::Rng;

/// Deduplicates points that collide exactly (grid generators can collide);
/// jitters duplicates by a tiny deterministic offset so the instance keeps
/// exactly n distinct cities.
void ensure_distinct(std::vector<geo::Point>& pts, Rng& rng) {
  auto key = [](geo::Point p) {
    return std::pair<double, double>(p.x, p.y);
  };
  std::vector<std::pair<std::pair<double, double>, std::size_t>> sorted;
  sorted.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sorted.emplace_back(key(pts[i]), i);
  }
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].first == sorted[i - 1].first) {
      geo::Point& p = pts[sorted[i].second];
      p.x += rng.uniform(0.125, 0.5);
      p.y += rng.uniform(0.125, 0.5);
      sorted[i].first = key(p);  // may still collide; extremely unlikely
    }
  }
}

}  // namespace

Instance generate_uniform(std::size_t n, std::uint64_t seed, double extent) {
  CIM_REQUIRE(n >= 1, "instance size must be positive");
  Rng rng(util::hash_combine(seed, 0xA11CE));
  std::vector<geo::Point> pts(n);
  for (auto& p : pts) {
    p = {rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
  }
  ensure_distinct(pts, rng);
  Instance inst("uniform" + std::to_string(n), geo::Metric::kEuc2D,
                std::move(pts));
  inst.set_comment("synthetic uniform instance, seed=" + std::to_string(seed));
  return inst;
}

Instance generate_clustered(std::size_t n, std::size_t clusters,
                            std::uint64_t seed, double extent) {
  CIM_REQUIRE(n >= 1, "instance size must be positive");
  CIM_REQUIRE(clusters >= 1, "cluster count must be positive");
  Rng rng(util::hash_combine(seed, 0xB10B5));

  // Blob centres uniform; populations log-normal (heavy tail like the
  // rl instances); radii scale with sqrt(population).
  struct Blob {
    geo::Point center;
    double weight;
    double radius;
  };
  std::vector<Blob> blobs(clusters);
  double weight_sum = 0.0;
  for (auto& b : blobs) {
    b.center = {rng.uniform(0.05, 0.95) * extent,
                rng.uniform(0.05, 0.95) * extent};
    b.weight = std::exp(rng.normal(0.0, 1.0));
    weight_sum += b.weight;
  }
  for (auto& b : blobs) {
    const double population =
        b.weight / weight_sum * static_cast<double>(n);
    b.radius = 0.02 * extent * std::sqrt(std::max(population, 1.0) /
                                         (static_cast<double>(n) /
                                          static_cast<double>(clusters)));
  }

  std::vector<geo::Point> pts;
  pts.reserve(n);
  // 90% of cities belong to blobs, 10% diffuse background.
  while (pts.size() < n) {
    if (rng.chance(0.9)) {
      // Sample a blob proportional to weight.
      double pickw = rng.uniform(0.0, weight_sum);
      std::size_t bi = 0;
      while (bi + 1 < blobs.size() && pickw > blobs[bi].weight) {
        pickw -= blobs[bi].weight;
        ++bi;
      }
      const Blob& b = blobs[bi];
      pts.push_back({b.center.x + rng.normal(0.0, b.radius),
                     b.center.y + rng.normal(0.0, b.radius)});
    } else {
      pts.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
    }
  }
  ensure_distinct(pts, rng);
  Instance inst("clustered" + std::to_string(n), geo::Metric::kEuc2D,
                std::move(pts));
  inst.set_comment("synthetic clustered (rl-style) instance, seed=" +
                   std::to_string(seed));
  return inst;
}

Instance generate_drill_grid(std::size_t n, std::uint64_t seed,
                             double extent) {
  CIM_REQUIRE(n >= 1, "instance size must be positive");
  Rng rng(util::hash_combine(seed, 0xD211));

  // Component blocks: rectangular regions on the board, each filled with a
  // regular grid of drill holes at one of a few standard pitches.
  const auto blocks = std::max<std::size_t>(n / 120, 1);
  std::vector<geo::Point> pts;
  pts.reserve(n);
  while (pts.size() < n) {
    const double bw = rng.uniform(0.04, 0.18) * extent;
    const double bh = rng.uniform(0.04, 0.18) * extent;
    const geo::Point origin{rng.uniform(0.0, extent - bw),
                            rng.uniform(0.0, extent - bh)};
    static constexpr double kPitches[] = {25.0, 50.0, 100.0};
    const double pitch =
        kPitches[rng.below(std::size(kPitches))] * extent / 10000.0;
    const auto cols = std::max<std::size_t>(
        static_cast<std::size_t>(bw / pitch), 1);
    const auto rows = std::max<std::size_t>(
        static_cast<std::size_t>(bh / pitch), 1);
    // Fill a fraction of grid slots (components do not use every position).
    const double fill = rng.uniform(0.3, 0.9);
    for (std::size_t r = 0; r < rows && pts.size() < n; ++r) {
      for (std::size_t c = 0; c < cols && pts.size() < n; ++c) {
        if (!rng.chance(fill)) continue;
        pts.push_back({origin.x + static_cast<double>(c) * pitch,
                       origin.y + static_cast<double>(r) * pitch});
      }
    }
    (void)blocks;
  }
  ensure_distinct(pts, rng);
  Instance inst("drill" + std::to_string(n), geo::Metric::kEuc2D,
                std::move(pts));
  inst.set_comment("synthetic PCB drill (pcb-style) instance, seed=" +
                   std::to_string(seed));
  return inst;
}

Instance generate_pla(std::size_t n, std::uint64_t seed, double extent) {
  CIM_REQUIRE(n >= 1, "instance size must be positive");
  Rng rng(util::hash_combine(seed, 0x91A));

  // Macro blocks, each containing horizontal rows of regularly spaced pads
  // (the pla instances are VLSI logic-array artwork).
  std::vector<geo::Point> pts;
  pts.reserve(n);
  const double pad_pitch = extent / 4000.0;
  const double row_pitch = pad_pitch * 4.0;
  while (pts.size() < n) {
    const double bw = rng.uniform(0.05, 0.25) * extent;
    const auto rows = static_cast<std::size_t>(rng.range(4, 40));
    const geo::Point origin{rng.uniform(0.0, extent - bw),
                            rng.uniform(0.0, extent * 0.95)};
    const auto pads = std::max<std::size_t>(
        static_cast<std::size_t>(bw / pad_pitch), 2);
    for (std::size_t r = 0; r < rows && pts.size() < n; ++r) {
      // Rows are sparsely populated with runs of consecutive pads.
      std::size_t c = 0;
      while (c < pads && pts.size() < n) {
        const auto run = static_cast<std::size_t>(rng.range(2, 24));
        for (std::size_t k = 0; k < run && c < pads && pts.size() < n;
             ++k, ++c) {
          pts.push_back(
              {origin.x + static_cast<double>(c) * pad_pitch,
               origin.y + static_cast<double>(r) * row_pitch});
        }
        c += static_cast<std::size_t>(rng.range(1, 16));  // gap
      }
    }
  }
  ensure_distinct(pts, rng);
  Instance inst("pla" + std::to_string(n), geo::Metric::kEuc2D,
                std::move(pts));
  inst.set_comment("synthetic logic-array (pla-style) instance, seed=" +
                   std::to_string(seed));
  return inst;
}

Instance generate_geographic(std::size_t n, std::uint64_t seed,
                             double extent) {
  CIM_REQUIRE(n >= 1, "instance size must be positive");
  Rng rng(util::hash_combine(seed, 0x6E0));

  // Two-scale model: metro areas (heavy Gaussian blobs) whose centres are
  // themselves drawn near a few curved corridors, plus rural background.
  const std::size_t corridors = 5;
  struct Corridor {
    geo::Point a;
    geo::Point b;
    double bow;  // perpendicular bowing of the corridor curve
  };
  std::vector<Corridor> roads(corridors);
  for (auto& r : roads) {
    r.a = {rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
    r.b = {rng.uniform(0.0, extent), rng.uniform(0.0, extent)};
    r.bow = rng.uniform(-0.2, 0.2) * extent;
  }
  const auto corridor_point = [&](const Corridor& r, double t) {
    const geo::Point base = r.a * (1.0 - t) + r.b * t;
    const geo::Point dir = r.b - r.a;
    const double len = std::max(geo::euclidean(r.a, r.b), 1.0);
    const geo::Point normal{-dir.y / len, dir.x / len};
    return base + normal * (r.bow * std::sin(t * 3.14159265358979));
  };

  const std::size_t metros = std::max<std::size_t>(n / 400, 8);
  std::vector<geo::Point> centers(metros);
  std::vector<double> weights(metros);
  double wsum = 0.0;
  for (std::size_t m = 0; m < metros; ++m) {
    const Corridor& r = roads[rng.below(roads.size())];
    const geo::Point c = corridor_point(r, rng.uniform());
    centers[m] = {c.x + rng.normal(0.0, 0.02 * extent),
                  c.y + rng.normal(0.0, 0.02 * extent)};
    weights[m] = std::exp(rng.normal(0.0, 1.2));
    wsum += weights[m];
  }

  std::vector<geo::Point> pts;
  pts.reserve(n);
  while (pts.size() < n) {
    const double roll = rng.uniform();
    if (roll < 0.70) {  // metro population
      double pickw = rng.uniform(0.0, wsum);
      std::size_t m = 0;
      while (m + 1 < metros && pickw > weights[m]) {
        pickw -= weights[m];
        ++m;
      }
      const double sigma = 0.012 * extent * std::sqrt(weights[m]);
      pts.push_back({centers[m].x + rng.normal(0.0, sigma),
                     centers[m].y + rng.normal(0.0, sigma)});
    } else if (roll < 0.92) {  // towns along corridors
      const Corridor& r = roads[rng.below(roads.size())];
      const geo::Point c = corridor_point(r, rng.uniform());
      pts.push_back({c.x + rng.normal(0.0, 0.01 * extent),
                     c.y + rng.normal(0.0, 0.01 * extent)});
    } else {  // rural background
      pts.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
    }
  }
  ensure_distinct(pts, rng);
  Instance inst("geo" + std::to_string(n), geo::Metric::kEuc2D,
                std::move(pts));
  inst.set_comment("synthetic geographic (usa/d-style) instance, seed=" +
                   std::to_string(seed));
  return inst;
}

namespace {

struct NamedSpec {
  const char* name;
  std::size_t n;
  enum class Family { kDrill, kClustered, kPla, kGeographic, kUniform } family;
};

constexpr NamedSpec kPaperInstances[] = {
    {"pcb442", 442, NamedSpec::Family::kDrill},
    {"pcb1173", 1173, NamedSpec::Family::kDrill},
    {"pcb3038", 3038, NamedSpec::Family::kDrill},
    {"rl1304", 1304, NamedSpec::Family::kClustered},
    {"rl5915", 5915, NamedSpec::Family::kClustered},
    {"rl5934", 5934, NamedSpec::Family::kClustered},
    {"rl11849", 11849, NamedSpec::Family::kClustered},
    {"usa13509", 13509, NamedSpec::Family::kGeographic},
    {"d15112", 15112, NamedSpec::Family::kGeographic},
    {"d18512", 18512, NamedSpec::Family::kGeographic},
    {"pla7397", 7397, NamedSpec::Family::kPla},
    {"pla33810", 33810, NamedSpec::Family::kPla},
    {"pla85900", 85900, NamedSpec::Family::kPla},
};

const NamedSpec* find_spec(const std::string& name) {
  for (const auto& spec : kPaperInstances) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// The family and size a synthetic instance name asks for: a paper
/// instance, or a generic "famN" name such as pcb2000, rl900, pla12000 or
/// geo5000. Throws ConfigError for an unknown family or a size suffix
/// that is missing, zero or out of range.
NamedSpec resolve_name(const std::string& name) {
  if (const NamedSpec* spec = find_spec(name)) return *spec;
  std::size_t digits = name.size();
  while (digits > 0 &&
         std::isdigit(static_cast<unsigned char>(name[digits - 1]))) {
    --digits;
  }
  const std::string prefix = name.substr(0, digits);
  const std::string_view number = std::string_view(name).substr(digits);
  if (number.empty()) {
    throw ConfigError("unknown instance name: " + name);
  }
  std::size_t n = 0;
  const auto parsed =
      std::from_chars(number.data(), number.data() + number.size(), n);
  if (parsed.ec != std::errc{} || n == 0) {
    throw ConfigError("instance size out of range in name: " + name);
  }
  using Family = NamedSpec::Family;
  if (prefix == "pcb") return {nullptr, n, Family::kDrill};
  if (prefix == "rl" || prefix == "clustered") {
    return {nullptr, n, Family::kClustered};
  }
  if (prefix == "pla") return {nullptr, n, Family::kPla};
  if (prefix == "usa" || prefix == "d" || prefix == "geo") {
    return {nullptr, n, Family::kGeographic};
  }
  if (prefix == "uniform" || prefix == "u") {
    return {nullptr, n, Family::kUniform};
  }
  throw ConfigError("unknown instance family: " + name);
}

std::uint64_t name_seed(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::filesystem::path tsplib_path(const std::string& name) {
  const char* dir = std::getenv("CIMANNEAL_TSPLIB_DIR");
  if (!dir || !*dir) return {};
  return std::filesystem::path(dir) / (name + ".tsp");
}

}  // namespace

bool have_real_tsplib(const std::string& name) {
  const auto path = tsplib_path(name);
  return !path.empty() && std::filesystem::exists(path);
}

Instance make_paper_instance(const std::string& name) {
  if (have_real_tsplib(name)) {
    CIM_LOG_INFO << "loading real TSPLIB data for " << name;
    return load_tsplib(tsplib_path(name).string());
  }

  const NamedSpec spec = resolve_name(name);
  const std::size_t n = spec.n;
  const std::uint64_t seed = name_seed(name);
  Instance generated = [&] {
    switch (spec.family) {
      case NamedSpec::Family::kDrill:
        return generate_drill_grid(n, seed);
      case NamedSpec::Family::kClustered:
        return generate_clustered(n, std::max<std::size_t>(n / 150, 4), seed);
      case NamedSpec::Family::kPla:
        return generate_pla(n, seed);
      case NamedSpec::Family::kGeographic:
        return generate_geographic(n, seed);
      case NamedSpec::Family::kUniform:
        return generate_uniform(n, seed);
    }
    throw InvariantError("unreachable instance family");
  }();
  Instance inst(name, generated.metric(),
                {generated.coords().begin(), generated.coords().end()});
  if (spec.family != NamedSpec::Family::kUniform) {
    inst.set_comment("synthetic mimic of TSPLIB " + name +
                     " (set CIMANNEAL_TSPLIB_DIR to use real data)");
  }
  return inst;
}

void check_paper_instance_name(const std::string& name) {
  if (!have_real_tsplib(name)) resolve_name(name);
}

}  // namespace cim::tsp
