// checks.hpp — bit-exact comparisons behind the correctness checks.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "monitor/aggregator.hpp"

namespace perfbench {

inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

inline bool same_point(const likwid::monitor::SeriesPoint& a,
                       const likwid::monitor::SeriesPoint& b) {
  return a.machine_id == b.machine_id && a.window == b.window &&
         a.group_id == b.group_id && a.metric_id == b.metric_id &&
         same_bits(a.t_start, b.t_start) && same_bits(a.t_end, b.t_end) &&
         same_bits(a.stats.min, b.stats.min) &&
         same_bits(a.stats.avg, b.stats.avg) &&
         same_bits(a.stats.max, b.stats.max) &&
         same_bits(a.stats.p95, b.stats.p95) &&
         a.stats.count == b.stats.count;
}

inline bool same_rollup(const std::vector<likwid::monitor::SeriesPoint>& a,
                        const std::vector<likwid::monitor::SeriesPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_point(a[i], b[i])) return false;
  }
  return true;
}

inline bool same_sample(const likwid::monitor::Sample& a,
                        const likwid::monitor::Sample& b) {
  if (a.sequence != b.sequence || !same_bits(a.t_start, b.t_start) ||
      !same_bits(a.t_end, b.t_end) ||
      a.schema->group_id != b.schema->group_id ||
      a.values.size() != b.values.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (!same_bits(a.values[i], b.values[i])) return false;
  }
  return true;
}

}  // namespace perfbench
