// Lightweight fuzzing: randomly mutated inputs and random operation
// sequences must never crash, corrupt state, or escape the typed
// exception hierarchy. (Deterministic seeds — these run in CI, not as an
// open-ended fuzzer.)
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cim/storage.hpp"
#include "core/cli.hpp"
#include "noise/sram_model.hpp"
#include "tsp/tour_io.hpp"
#include "tsp/tsplib.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace cim {
namespace {

const std::string kValidTsp =
    "NAME : fuzz\nTYPE : TSP\nDIMENSION : 5\nEDGE_WEIGHT_TYPE : EUC_2D\n"
    "NODE_COORD_SECTION\n1 0 0\n2 1 0\n3 2 1\n4 0 2\n5 3 3\nEOF\n";

/// Applies `count` random single-character mutations.
std::string mutate(const std::string& base, util::Rng& rng,
                   std::size_t count) {
  std::string text = base;
  for (std::size_t m = 0; m < count && !text.empty(); ++m) {
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(3)) {
      case 0:  // replace
        text[pos] = static_cast<char>(rng.range(32, 126));
        break;
      case 1:  // delete
        text.erase(pos, 1);
        break;
      default:  // insert
        text.insert(pos, 1, static_cast<char>(rng.range(32, 126)));
    }
  }
  return text;
}

TEST(Fuzz, TsplibParserNeverEscapesTypedErrors) {
  util::Rng rng(0xF022);
  std::size_t parsed_ok = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto text = mutate(kValidTsp, rng, 1 + rng.below(8));
    try {
      const auto inst = tsp::parse_tsplib(text);
      // If it parsed, the instance must be internally consistent.
      EXPECT_GE(inst.size(), 1U);
      EXPECT_LE(inst.distance(0, 0), 0);
      ++parsed_ok;
    } catch (const Error&) {
      // Typed rejection is the expected outcome for most mutations.
    }
  }
  // Small mutations often leave the file valid; both paths must occur.
  EXPECT_GT(parsed_ok, 0U);
}

TEST(Fuzz, TourParserNeverEscapesTypedErrors) {
  const std::string valid =
      "TYPE : TOUR\nDIMENSION : 4\nTOUR_SECTION\n1\n2\n3\n4\n-1\nEOF\n";
  util::Rng rng(0xF033);
  for (int trial = 0; trial < 400; ++trial) {
    const auto text = mutate(valid, rng, 1 + rng.below(6));
    try {
      const auto tour = tsp::parse_tour(text);
      EXPECT_TRUE(tour.is_valid(tour.size()));
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, StorageRandomOperationSequences) {
  const noise::SramCellModel model(noise::SramNoiseParams{}, 0xF044);
  util::Rng rng(0xF055);
  for (int round = 0; round < 20; ++round) {
    const auto rows = static_cast<std::uint32_t>(rng.range(1, 24));
    const auto cols = static_cast<std::uint32_t>(rng.range(1, 16));
    const auto bits = static_cast<std::uint32_t>(rng.range(1, 8));
    auto storage = rng.chance(0.5)
                       ? hw::make_fast_storage(rows, cols, &model,
                                               rng(), bits)
                       : hw::make_bit_level_storage(rows, cols, &model,
                                                    rng(), bits);
    // Write a valid image first (write_back before write is a separate,
    // tested invariant).
    std::vector<std::uint8_t> image(
        static_cast<std::size_t>(rows) * cols);
    for (auto& w : image) {
      w = static_cast<std::uint8_t>(rng.below(1U << bits));
    }
    storage->write(image);

    for (int op = 0; op < 50; ++op) {
      switch (rng.below(3)) {
        case 0: {
          noise::SchedulePhase phase;
          phase.epoch = rng.below(16);
          phase.vdd = rng.uniform(0.18, 0.8);
          phase.noisy_lsbs = static_cast<unsigned>(rng.below(bits + 1));
          storage->write_back(phase);
          break;
        }
        case 1: {
          std::vector<std::uint8_t> input(rows);
          for (auto& b : input) b = rng.chance(0.5) ? 1 : 0;
          const auto col = static_cast<std::uint32_t>(rng.below(cols));
          const std::int64_t value = storage->mac(hw::ColIndex(col), input);
          EXPECT_GE(value, 0);
          EXPECT_LE(value, static_cast<std::int64_t>(rows) * 255);
          break;
        }
        default: {
          const auto r = static_cast<std::uint32_t>(rng.below(rows));
          const auto c = static_cast<std::uint32_t>(rng.below(cols));
          EXPECT_LT(storage->weight(hw::RowIndex(r), hw::ColIndex(c)), 1U << bits);
        }
      }
    }
  }
}

TEST(Fuzz, InstanceRoundTripUnderMutationSurvivors) {
  // Any mutated file the parser accepts must round-trip through the
  // writer (write → parse → identical distances).
  util::Rng rng(0xF066);
  for (int trial = 0; trial < 200; ++trial) {
    const auto text = mutate(kValidTsp, rng, 1 + rng.below(4));
    try {
      const auto inst = tsp::parse_tsplib(text);
      if (!inst.has_coords()) continue;
      const auto back = tsp::parse_tsplib(tsp::write_tsplib(inst));
      ASSERT_EQ(back.size(), inst.size());
      for (tsp::CityId a = 0; a < inst.size(); ++a) {
        for (tsp::CityId b = 0; b < inst.size(); ++b) {
          EXPECT_EQ(back.distance(a, b), inst.distance(a, b));
        }
      }
    } catch (const Error&) {
    }
  }
}

enum class Cli { kQubo, kTsplib };

/// Parses `tokens` (everything after the program name) as the given CLI.
core::SolverConfig parse_cli(Cli cli, const std::vector<std::string>& tokens) {
  std::vector<const char*> argv = {"solver"};
  for (const auto& t : tokens) argv.push_back(t.c_str());
  const util::Args args(static_cast<int>(argv.size()), argv.data());
  return cli == Cli::kQubo ? core::qubo_cli_config(args)
                           : core::tsplib_cli_config(args);
}

struct CliCase {
  Cli cli;
  std::string option;
  std::string value;
};

TEST(Fuzz, CliRejectsBadNumericOptionsAtParseTime) {
  // Each bad value is a one-line UsageError naming its option, raised
  // before a solver exists. `--sweeps -1` used to wrap to 4 294 967 295
  // sweeps, and `--block 0` was silently ignored on the Max-Cut path.
  const std::vector<CliCase> bad = {
      {Cli::kQubo, "sweeps", "-1"},
      {Cli::kQubo, "sweeps", "0"},
      {Cli::kQubo, "sweeps", "1000001"},
      {Cli::kQubo, "sweeps", "4294967295"},
      {Cli::kQubo, "sweeps", "18446744073709551615"},
      {Cli::kQubo, "sweeps", "12abc"},
      {Cli::kQubo, "sweeps", "1e3"},
      {Cli::kQubo, "sweeps", "many"},
      {Cli::kQubo, "block", "0"},
      {Cli::kQubo, "block", "-64"},
      {Cli::kQubo, "block", "1048577"},
      {Cli::kQubo, "seed", "-1"},
      {Cli::kQubo, "seed", "-9223372036854775808"},
      {Cli::kQubo, "seed", "9223372036854775808"},
      {Cli::kTsplib, "p", "0"},
      {Cli::kTsplib, "p", "1"},
      {Cli::kTsplib, "p", "-3"},
      {Cli::kTsplib, "p", "33"},
      {Cli::kTsplib, "p", "3.5"},
      {Cli::kTsplib, "seed", "-7"},
      {Cli::kTsplib, "seed", "seven"},
      // A store directory that cannot be created used to fail only in the
      // store constructor, after the instance was loaded, with exit 1.
      {Cli::kTsplib, "warm-start-dir", "/dev/null"},
      {Cli::kTsplib, "warm-start-dir", "/dev/null/store"},
      {Cli::kQubo, "warm-dir", "/dev/null"},
      {Cli::kQubo, "warm-dir", "/dev/null/store"},
  };
  for (const auto& c : bad) {
    const std::vector<std::string> tokens = {"--gset", "g.gset",
                                             "--" + c.option + "=" + c.value};
    try {
      parse_cli(c.cli, tokens);
      ADD_FAILURE() << "accepted --" << c.option << "=" << c.value;
    } catch (const UsageError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--" + c.option), std::string::npos) << message;
      EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    }
  }
  EXPECT_THROW(parse_cli(Cli::kQubo, {"--strategy", "spiral"}), UsageError);
  // qubo_solver reads its input through --gset/--jh only; a stray
  // positional file used to be ignored silently.
  EXPECT_THROW(parse_cli(Cli::kQubo, {"--gset", "g.gset", "stray.txt"}),
               UsageError);
  // Unknown or unparsable --instance names are usage errors too, caught
  // before anything is generated (the over-long suffix used to escape as
  // a bare `stoull`).
  for (const char* name :
       {"nosuch", "pcb", "spiral3038", "pcb0",
        "pcb99999999999999999999999"}) {
    try {
      parse_cli(Cli::kTsplib, {"--instance", name});
      ADD_FAILURE() << "accepted --instance " << name;
    } catch (const UsageError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("--instance"), std::string::npos) << message;
      EXPECT_EQ(message.find('\n'), std::string::npos) << message;
    }
  }
}

TEST(Fuzz, CliAcceptsEveryOptionAtItsRangeEdges) {
  const auto lo = parse_cli(Cli::kQubo, {"--sweeps", "1", "--block", "1",
                                         "--seed", "0"});
  EXPECT_EQ(lo.schedule.total_iterations, 1U);
  EXPECT_EQ(lo.group_block, 1U);
  EXPECT_EQ(lo.seed, 0U);
  const auto hi = parse_cli(
      Cli::kQubo, {"--sweeps", std::to_string(core::kCliMaxSweeps), "--block",
                   std::to_string(core::kCliMaxBlock), "--seed",
                   "9223372036854775807"});
  EXPECT_EQ(hi.schedule.total_iterations,
            static_cast<std::size_t>(core::kCliMaxSweeps));
  EXPECT_EQ(hi.group_block, static_cast<std::uint32_t>(core::kCliMaxBlock));
  EXPECT_EQ(hi.seed, static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(parse_cli(Cli::kTsplib, {"--p", "2"}).p_max, 2U);
  EXPECT_EQ(parse_cli(Cli::kTsplib, {"--p", "32"}).p_max, 32U);
  for (const char* name : {"pcb3038", "rl5934", "pcb2000", "u1", "geo5000"}) {
    EXPECT_NO_THROW(parse_cli(Cli::kTsplib, {"--instance", name})) << name;
  }
  // Defaults are in range too.
  EXPECT_EQ(parse_cli(Cli::kQubo, {}).schedule.total_iterations, 400U);
  EXPECT_EQ(parse_cli(Cli::kTsplib, {}).p_max, 3U);
  // Every accepted configuration constructs a solver.
  EXPECT_NO_THROW(core::CimSolver(parse_cli(Cli::kTsplib, {"--p", "2"})));
  // A missing warm-start directory is created while parsing.
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "cim_cli_warm_dir";
  fs::remove_all(root);
  for (const auto& [cli, option] : {std::pair{Cli::kTsplib, "warm-start-dir"},
                                    std::pair{Cli::kQubo, "warm-dir"}}) {
    const fs::path dir = root / option / "nested";
    const auto config =
        parse_cli(cli, {"--" + std::string(option), dir.string()});
    EXPECT_EQ(config.warm_start_dir, dir.string());
    EXPECT_TRUE(fs::is_directory(dir)) << dir;
  }
  fs::remove_all(root);
}

TEST(Fuzz, CliNumericOptionsNeverEscapeUsageErrors) {
  // Mutated option values either parse into range or raise UsageError;
  // nothing else may escape, and nothing out of range may get through.
  const std::vector<CliCase> valid = {{Cli::kQubo, "sweeps", "400"},
                                      {Cli::kQubo, "block", "64"},
                                      {Cli::kQubo, "seed", "17"},
                                      {Cli::kTsplib, "p", "3"},
                                      {Cli::kTsplib, "seed", "7"},
                                      {Cli::kTsplib, "instance", "pcb442"}};
  util::Rng rng(0xF077);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const auto& base = valid[rng.below(valid.size())];
    const std::string value = mutate(base.value, rng, 1 + rng.below(3));
    try {
      const auto config =
          parse_cli(base.cli, {"--" + base.option + "=" + value});
      ++accepted;
      EXPECT_GE(config.schedule.total_iterations, 1U);
      EXPECT_LE(config.schedule.total_iterations,
                static_cast<std::size_t>(core::kCliMaxSweeps));
      EXPECT_GE(config.group_block, 1U);
      EXPECT_LE(config.group_block,
                static_cast<std::uint32_t>(core::kCliMaxBlock));
      EXPECT_GE(config.p_max, static_cast<std::uint32_t>(core::kCliMinP));
      EXPECT_LE(config.p_max, static_cast<std::uint32_t>(core::kCliMaxP));
      EXPECT_LE(config.seed, static_cast<std::uint64_t>(
                                 std::numeric_limits<std::int64_t>::max()));
    } catch (const UsageError&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0U);
  EXPECT_GT(rejected, 0U);
}

}  // namespace
}  // namespace cim
