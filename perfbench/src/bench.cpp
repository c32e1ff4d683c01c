#include "bench.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

namespace {

std::uint64_t next_random(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// Sorts 16Ki random integers; returns the wall seconds of the sort.
double time_sort(std::uint64_t& state) {
  static std::vector<std::uint32_t> values(std::size_t{1} << 14);
  for (std::uint32_t& v : values) v = static_cast<std::uint32_t>(next_random(state));
  const std::int64_t start = now_ns();
  std::sort(values.begin(), values.end());
  return seconds_between(start, now_ns());
}

/// Fills a fresh hash map with 16Ki random updates and lookups.
double time_hash_map(std::uint64_t& state) {
  const std::int64_t start = now_ns();
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::uint64_t hits = 0;
  for (int i = 0; i < (1 << 14); ++i) {
    const std::uint64_t x = next_random(state);
    map[x >> 18] += x;
    hits += map.count(x >> 19);
  }
  state += hits;
  return seconds_between(start, now_ns());
}

double median_of_three(std::array<double, 3> v) {
  std::sort(v.begin(), v.end());
  return v[1];
}

}  // namespace

double probe_host_seconds() {
  static std::uint64_t state = 1;
  std::array<double, 3> sorts{}, maps{};
  for (std::size_t i = 0; i < sorts.size(); ++i) {
    sorts[i] = time_sort(state);
    maps[i] = time_hash_map(state);
  }
  return median_of_three(sorts) + median_of_three(maps);
}

void CycleTimer::book() {
  result_.setup_s.push_back(setup_s_);
  if (ran_) result_.run_wall_s += run_s_;
  if (!probe_) return;
  const double scale =
      kReferenceProbeSeconds / (0.5 * (probe_before_ + probe_host_seconds()));
  result_.setup_ref_s.push_back(setup_s_ * scale);
  if (ran_) result_.run_ref_s += run_s_ * scale;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

void Metrics::merge(const Metrics& other, const std::string& prefix) {
  for (const Metric& m : other.items()) set(prefix + m.name, m.value, m.unit);
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char number[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    std::snprintf(number, sizeof number, "%.17g", items_[i].value);
    out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + number +
           ", \"unit\": \"" + items_[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench
