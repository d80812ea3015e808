// Minimal command-line parsing shared by the examples and bench binaries.
// Supports `--name value`, `--name=value`, boolean `--flag`, and collects
// positional arguments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace cim::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string get_or(const std::string& name, std::string fallback) const;
  /// The option as a whole-token base-10 integer; UsageError otherwise.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int() checked against [lo, hi]; UsageError names the option and
  /// the range when the value falls outside.
  std::int64_t get_int_in(const std::string& name, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_flag(const std::string& name) const { return has(name); }

  /// Environment helper: true when the variable is set to a truthy value.
  static bool env_flag(const char* name);

 private:
  std::string program_;
  std::map<std::string, std::string> named_;
  std::vector<std::string> positional_;
};

}  // namespace cim::util
