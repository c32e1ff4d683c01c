// bench.hpp — shared vocabulary of the perfbench workloads: clocks, the
// metric list a pass reports, and the plan that sizes a pass.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// CPU time of the whole process (every thread, exited ones included).
double process_cpu_seconds();

/// Peak resident set size of the process (VmHWM) in MiB.
double peak_rss_mb();

/// Wall seconds the host takes for one fixed unit of reference work: a
/// sort of 16Ki integers plus 16Ki hash-map updates and lookups, each the
/// median of three bursts, no library code. Timed next to each set-up and
/// run phase, it tracks how fast the host runs at that moment, so the
/// end-to-end figures can be stated at a fixed host speed (see
/// kReferenceProbeSeconds). Not thread-safe; the thread that runs a pass
/// calls it.
double probe_host_seconds();

/// The reference host speed: about what probe_host_seconds() reads on a
/// quiet 4-vCPU x86-64 VM (Xeon, gcc 12 Release). A time t measured while
/// the probe reads p is stated as t * kReferenceProbeSeconds / p, the time
/// the same work takes while the probe reads kReferenceProbeSeconds.
inline constexpr double kReferenceProbeSeconds = 1.6e-3;

/// Nearest-rank quantile, q in (0, 1]; 0 for an empty set.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
inline double total(const std::vector<double>& values) {
  double sum = 0;
  for (const double v : values) sum += v;
  return sum;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered name -> (value, unit) list, emitted as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Append every metric of `other`, its names prefixed by `prefix`.
  void merge(const Metrics& other, const std::string& prefix);
  const std::vector<Metric>& items() const noexcept { return items_; }
  std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

/// How big a pass is and how it is observed.
struct PassPlan {
  std::uint64_t seed = 1;
  bool reduced = false;
  /// Rounds run until this much wall time has passed (at least one).
  double budget_seconds = 1;
  /// When non-zero, exactly this many rounds instead of the budget.
  int fixed_rounds = 0;
  /// Set-ups a pass performs at least (extra ones are timed, then
  /// discarded), so setup_s is always a median of several.
  int min_setups = 0;
  /// Probe the host's speed around every set-up and run phase.
  bool probe_host = false;
  /// Span recorder of a traced pass; null when tracing is off.
  Tracer* tracer = nullptr;

  bool more_rounds(int rounds_done, std::int64_t pass_start_ns) const {
    if (fixed_rounds > 0) return rounds_done < fixed_rounds;
    return rounds_done == 0 ||
           seconds_between(pass_start_ns, now_ns()) < budget_seconds;
  }
};

/// What one pass of a workload measured and checked.
struct PassResult {
  std::vector<double> setup_s;  ///< one entry per set-up performed
  double items = 0;             ///< work items completed in run phases
  double run_wall_s = 0;        ///< wall time of the run phases
  double run_cpu_s = 0;         ///< process CPU time of the run phases
  /// With PassPlan::probe_host: each set-up, and the run phases in total,
  /// at the reference host speed (see kReferenceProbeSeconds).
  std::vector<double> setup_ref_s;
  double run_ref_s = 0;
  std::vector<double> round_s;  ///< wall time of each round, checks excluded
  int rounds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed correctness checks
  std::vector<std::string> shape;   ///< "key=value" of the workload size
  Metrics detail;  ///< workload-specific end-to-end metrics
  Metrics layers;  ///< per-layer metrics (filled by traced passes)

  void fail(std::string message) { errors.push_back(std::move(message)); }
};

/// Times one set-up and the run phase that follows it (or a set-up
/// alone) and books both into a PassResult: wall seconds, the run phase's
/// process CPU time and, when the plan probes the host, the same times at
/// the reference host speed, using the mean of a probe taken before the
/// set-up and one taken after the last phase.
class CycleTimer {
 public:
  CycleTimer(const PassPlan& plan, PassResult& result)
      : probe_(plan.probe_host), result_(result) {}

  void begin_setup() {
    if (probe_) probe_before_ = probe_host_seconds();
    setup_start_ = now_ns();
  }
  void end_setup() { setup_s_ = seconds_between(setup_start_, now_ns()); }
  void begin_run() {
    ran_ = true;
    cpu_start_ = process_cpu_seconds();
    run_start_ = now_ns();
  }
  /// Ends the run phase and books the cycle.
  void end_run() {
    run_s_ = seconds_between(run_start_, now_ns());
    result_.run_cpu_s += process_cpu_seconds() - cpu_start_;
    book();
  }
  /// Books the set-up, and the run phase if one ran.
  void book();

 private:
  bool probe_;
  PassResult& result_;
  bool ran_ = false;
  double probe_before_ = 0;
  std::int64_t setup_start_ = 0;
  std::int64_t run_start_ = 0;
  double setup_s_ = 0;
  double run_s_ = 0;
  double cpu_start_ = 0;
};

PassResult run_fleet_pipeline(const PassPlan& plan);
PassResult run_ingest_soak(const PassPlan& plan);
PassResult run_stencil_perfctr(const PassPlan& plan);
PassResult run_agent_latency(const PassPlan& plan);

}  // namespace perfbench
