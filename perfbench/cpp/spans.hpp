// The benchmark's own spans, timed with its own clock around each call it
// makes into a layer of the program.
//
// A span records its name, start, end, parent span and the id of the
// solve it belongs to (0 for set-up). Spans stay in memory; the traced run
// writes them once, at its end, as Chrome-trace JSON that Perfetto and
// chrome://tracing load. Per-layer metrics are read back from the same
// records, so a number in the result and a bar in the trace are one
// measurement.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start` on the benchmark clock.
double seconds_since(Clock::time_point start);

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
double median(std::vector<double> values);

class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;  ///< since the tracer was created
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the parent record, −1 for a root
    std::uint64_t solve = 0;
  };

  /// Solve id stamped on spans opened from now on.
  void set_solve(std::uint64_t id) { solve_ = id; }

  /// Opens a span as a child of the innermost open one; returns its index.
  std::size_t begin(std::string name);
  /// Closes span `index` and any child still open; returns its seconds.
  double end(std::size_t index);

  /// Total seconds of the spans named `name` in solve `solve`.
  double seconds(const std::string& name, std::uint64_t solve) const;
  /// Seconds of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Writes the records as Chrome-trace JSON ("X" complete events, one
  /// track per solve, parent and solve id in args).
  void save_chrome_trace(const std::string& path) const;

 private:
  std::uint64_t now_ns() const;

  Clock::time_point epoch_ = Clock::now();
  std::uint64_t solve_ = 0;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// RAII span on a tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name)
      : tracer_(tracer), index_(tracer.begin(std::move(name))) {}
  ~Span() {
    if (open_) tracer_.end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span early; returns its seconds.
  double stop() {
    open_ = false;
    return tracer_.end(index_);
  }

 private:
  Tracer& tracer_;
  std::size_t index_;
  bool open_ = true;
};

}  // namespace perfbench
