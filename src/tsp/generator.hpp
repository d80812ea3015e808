// Synthetic TSP instance generators.
//
// The paper evaluates on TSPLIB instances (pcb3038 … pla85900). Those data
// files are not redistributable inside this repository, so we provide
// deterministic generators that mimic each family's spatial statistics:
//
//   * pcbXXXX — printed-circuit-board drill patterns: points snapped to a
//     fine grid, organised in rectangular component blocks with gaps;
//   * rlXXXX — Padberg/Rinaldi-style strongly clustered point processes
//     (Gaussian blobs of widely varying density);
//   * plaXXXX — programmed-logic-array layouts: long horizontal rows of
//     regularly spaced pads grouped into macro blocks;
//   * usaXXXXX / dXXXXX — road-network-like distributions: multi-scale
//     clusters (metro areas) plus a diffuse background along curved bands.
//
// `make_paper_instance` returns the real TSPLIB file when one is found in
// $CIMANNEAL_TSPLIB_DIR, otherwise the synthetic mimic of matching size.
#pragma once

#include <cstdint>
#include <string>

#include "tsp/instance.hpp"

namespace cim::tsp {

/// Uniform points in [0, extent)^2.
Instance generate_uniform(std::size_t n, std::uint64_t seed,
                          double extent = 10000.0);

/// Gaussian-blob clustered points ("rl" family). `clusters` blobs with
/// log-normal populations and radii.
Instance generate_clustered(std::size_t n, std::size_t clusters,
                            std::uint64_t seed, double extent = 10000.0);

/// PCB drill pattern ("pcb" family): grid-snapped points in component
/// blocks.
Instance generate_drill_grid(std::size_t n, std::uint64_t seed,
                             double extent = 10000.0);

/// Programmed-logic-array layout ("pla" family): rows of regularly spaced
/// pads inside macro blocks.
Instance generate_pla(std::size_t n, std::uint64_t seed,
                      double extent = 100000.0);

/// Road-network-like distribution ("usa"/"d" families).
Instance generate_geographic(std::size_t n, std::uint64_t seed,
                             double extent = 100000.0);

/// The paper's named instances. Accepts: pcb3038, rl5915, rl5934, rl11849,
/// usa13509, d15112, d18512, pla33810, pla85900 (and any "famN" name of a
/// known family). Loads the real TSPLIB file when available (see above),
/// otherwise generates the mimic deterministically from the name.
Instance make_paper_instance(const std::string& name);

/// Throws ConfigError unless make_paper_instance(name) would accept the
/// name; generates nothing.
void check_paper_instance_name(const std::string& name);

/// True when `make_paper_instance(name)` would load real TSPLIB data.
bool have_real_tsplib(const std::string& name);

}  // namespace cim::tsp
