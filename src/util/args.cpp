#include "util/args.hpp"

#include <charconv>
#include <cstdlib>

#include "util/error.hpp"

namespace cim::util {

Args::Args(int argc, const char* const* argv) {
  CIM_ASSERT(argc >= 1);
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(std::move(token));
      continue;
    }
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      named_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself an option.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      named_[token] = argv[++i];
    } else {
      named_[token] = "";  // bare flag
    }
  }
}

bool Args::has(const std::string& name) const {
  return named_.count(name) != 0;
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = named_.find(name);
  if (it == named_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& name, std::string fallback) const {
  const auto v = get(name);
  return v ? *v : std::move(fallback);
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  std::int64_t value = 0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw UsageError("option --" + name + " expects an integer, got '" + *v +
                     "'");
  }
  return value;
}

std::int64_t Args::get_int_in(const std::string& name, std::int64_t fallback,
                              std::int64_t lo, std::int64_t hi) const {
  CIM_ASSERT(lo <= hi);
  const std::int64_t value = get_int(name, fallback);
  if (value < lo || value > hi) {
    throw UsageError("option --" + name + " must be in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got " + std::to_string(value));
  }
  return value;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v || v->empty()) return fallback;
  try {
    return std::stod(*v);
  } catch (const std::exception&) {
    throw UsageError("option --" + name + " expects a number, got '" + *v +
                     "'");
  }
}

bool Args::env_flag(const char* name) {
  const char* v = std::getenv(name);
  if (!v) return false;
  const std::string s = v;
  return !(s.empty() || s == "0" || s == "false" || s == "off" || s == "no");
}

}  // namespace cim::util
