// Error-handling primitives shared by every cimanneal library.
//
// The library reports recoverable misuse (bad files, infeasible configs)
// via exceptions derived from cim::Error, and hard internal invariants via
// CIM_ASSERT, which is active in all build types: a violated invariant in a
// hardware model would silently corrupt an experiment, so we never compile
// these checks out.
#pragma once

#include <stdexcept>
#include <string>

namespace cim {

/// Base class for all recoverable cimanneal errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed or unsupported input data (e.g. a broken TSPLIB file).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// A configuration that cannot be realised (e.g. p_max < 1).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// A malformed or out-of-range command-line option. The CLIs report it in
/// one line and exit with status 2.
class UsageError : public ConfigError {
 public:
  explicit UsageError(const std::string& what) : ConfigError(what) {}
};

/// Internal invariant failure; thrown by CIM_ASSERT.
class InvariantError : public Error {
 public:
  explicit InvariantError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  throw InvariantError(std::string("invariant violated: ") + expr + " at " +
                       file + ":" + std::to_string(line) +
                       (msg.empty() ? "" : (" — " + msg)));
}
}  // namespace detail

}  // namespace cim

/// Always-on invariant check. `msg` is optional extra context.
#define CIM_ASSERT(expr)                                                 \
  do {                                                                   \
    if (!(expr)) ::cim::detail::assert_fail(#expr, __FILE__, __LINE__, ""); \
  } while (false)

#define CIM_ASSERT_MSG(expr, msg)                                          \
  do {                                                                     \
    if (!(expr)) ::cim::detail::assert_fail(#expr, __FILE__, __LINE__, msg); \
  } while (false)

/// Validate user-facing preconditions; throws ConfigError.
#define CIM_REQUIRE(expr, msg)                        \
  do {                                                \
    if (!(expr)) throw ::cim::ConfigError(msg);       \
  } while (false)
