#include "spans.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

std::size_t Tracer::begin(std::string name) {
  Record record;
  record.name = std::move(name);
  record.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  record.solve = solve_;
  record.start_ns = now_ns();
  records_.push_back(std::move(record));
  open_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

double Tracer::end(std::size_t index) {
  const std::uint64_t now = now_ns();
  // Spans close innermost first; should an exception unwind past an
  // open child, closing the parent closes the child with it.
  while (!open_.empty() && open_.back() >= index) {
    records_[open_.back()].end_ns = now;
    open_.pop_back();
  }
  const Record& record = records_[index];
  return static_cast<double>(record.end_ns - record.start_ns) * 1e-9;
}

double Tracer::seconds(const std::string& name, std::uint64_t solve) const {
  double total = 0.0;
  for (const Record& r : records_) {
    if (r.solve == solve && r.name == name) {
      total += static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
  }
  return total;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::save_chrome_trace(const std::string& path) const {
  using cim::util::Json;
  Json events = Json::array();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    Json e = Json::object();
    e["name"] = r.name;
    e["ph"] = "X";
    e["ts"] = static_cast<double>(r.start_ns) / 1000.0;
    e["dur"] = static_cast<double>(r.end_ns - r.start_ns) / 1000.0;
    e["pid"] = 1;
    e["tid"] = r.solve;
    Json args = Json::object();
    args["span_id"] = static_cast<std::uint64_t>(i);
    args["parent"] = static_cast<long long>(r.parent);
    args["parent_name"] =
        r.parent < 0 ? std::string() : records_[static_cast<std::size_t>(r.parent)].name;
    args["solve_id"] = r.solve;
    e["args"] = std::move(args);
    events.push_back(std::move(e));
  }
  Json out = Json::object();
  out["displayTimeUnit"] = "ms";
  out["traceEvents"] = std::move(events);
  out.save(path, -1);
}

}  // namespace perfbench
