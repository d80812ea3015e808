// End-user CLI: solve a TSPLIB file (or a named synthetic instance) with
// the CIM annealer, compare against the classical baselines, and write the
// tour out. The intro's motivating scenario: PCB drill-path optimisation —
// thousands of holes whose visiting order is a TSP.
//
//   ./tsplib_solver path/to/board.tsp --out tour.txt
//   ./tsplib_solver --instance pcb3038 --p 3 --seed 7
//   ./tsplib_solver --instance pcb442 --warm-start-dir .cim-store
//     (re-solves of the same board start from the stored best tour)
//   ./tsplib_solver --instance pcb442 --telemetry-out telem.json
//     (writes telem.json + telem.trace.json — load the latter in
//      chrome://tracing or ui.perfetto.dev)
//
// A malformed or out-of-range --p or --seed, or an --instance name that
// names no known family or size, is reported in one line with exit
// status 2.
#include <cstdio>
#include <exception>
#include <fstream>

#include "core/cli.hpp"
#include "core/solver.hpp"
#include "heuristics/construct.hpp"
#include "heuristics/sa_baseline.hpp"
#include "tsp/generator.hpp"
#include "tsp/tour_io.hpp"
#include "tsp/tsplib.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  try {
    const cim::util::Args args(argc, argv);
    const cim::core::SolverConfig config =
        cim::core::tsplib_cli_config(args);

    // Load from file (positional arg) or by instance name.
    const cim::tsp::Instance instance = [&] {
      if (!args.positional().empty()) {
        std::printf("loading TSPLIB file %s\n",
                    args.positional().front().c_str());
        return cim::tsp::load_tsplib(args.positional().front());
      }
      const std::string name = args.get_or("instance", "pcb3038");
      std::printf("generating instance %s\n", name.c_str());
      return cim::tsp::make_paper_instance(name);
    }();
    std::printf("%zu cities, metric %s\n", instance.size(),
                cim::geo::metric_name(instance.metric()).c_str());

    cim::util::Table table(
        {"solver", "tour length", "vs reference", "host time"});

    const auto outcome = cim::core::CimSolver(config).solve(instance);
    const long long reference =
        outcome.reference_length.value_or(outcome.tour_length);

    const auto add = [&](const std::string& label, long long length,
                         double seconds) {
      table.add_row({label, std::to_string(length),
                     cim::util::Table::num(
                         static_cast<double>(length) /
                             static_cast<double>(reference),
                         3),
                     cim::util::format_seconds(seconds)});
    };

    // Classical baselines for context.
    cim::util::Timer t;
    const auto nn = cim::heuristics::nearest_neighbor(instance);
    add("nearest neighbour", nn.length(instance), t.seconds());

    t.restart();
    cim::heuristics::SaOptions sa;
    sa.sweeps = 100;
    const auto sa_result =
        cim::heuristics::simulated_annealing(instance, nn, sa);
    add("CPU simulated annealing", sa_result.final_length, t.seconds());

    add("reference (greedy+2opt+or-opt)", reference,
        outcome.reference_seconds);
    add("CIM clustered annealer", outcome.tour_length,
        outcome.solve_wall_seconds);
    table.print();
    if (outcome.reference_length) {
      std::printf("(the reference ran beside the anneal; their times "
                  "overlap)\n");
    }

    if (outcome.ppa) {
      std::printf(
          "hardware projection: %s SRAM, %s, solution in %s at %s\n",
          cim::util::format_bits(
              static_cast<double>(outcome.ppa->layout.capacity_bits))
              .c_str(),
          cim::util::format_area(outcome.ppa->chip_area).c_str(),
          cim::util::format_seconds(outcome.ppa->latency.total().seconds()).c_str(),
          cim::util::format_watts(outcome.ppa->average_power.watts()).c_str());
    }

    if (!config.telemetry_out.empty()) {
      std::printf("telemetry written to %s and %s\n",
                  config.telemetry_out.c_str(),
                  cim::core::telemetry_trace_path(config.telemetry_out)
                      .c_str());
    }

    if (!config.warm_start_dir.empty()) {
      std::printf("warm start: %s (store at %s)\n",
                  outcome.warm_started ? "hit" : "cold",
                  config.warm_start_dir.c_str());
    }

    if (const auto out = args.get("out"); out && !out->empty()) {
      cim::tsp::save_tour(outcome.anneal.tour, instance.name() + ".tour",
                          *out);
      std::printf("tour written to %s\n", out->c_str());
    }
    return 0;
  } catch (const cim::UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
