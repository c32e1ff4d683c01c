// perfbench — the repository benchmark.
//
//   perfbench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//             [--reduced] [--trace-dir <dir>]
//
// --trace 0 runs the named workload in rounds for --seconds and prints its
// end-to-end metrics. --trace 1 is the traced run: every workload gets a
// warm-up round, an untraced pass (its workload-specific end-to-end metrics, and the
// baseline of the tracing overhead) and a traced pass of the same number
// of rounds (the per-layer metrics), so one traced run reports the whole
// layer table whichever workload is named. Spans are written to
// <trace-dir>/<workload>.spans.csv. --reduced shrinks every workload for
// the self-test.
//
// Standard output ends with one JSON object: correct, attempted, failed
// and metrics. The exit code is 1 when a correctness check failed, 2 on a
// usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

struct Workload {
  std::string_view name;
  PassResult (*run)(const PassPlan&);
  /// Layers whose self-time share the traced run reports.
  std::vector<std::string_view> layers;
  /// Whether the run phase is CPU work, so items_per_s is stated at the
  /// reference host speed; false when simulated device sleeps dominate it,
  /// which take the same wall time on any host.
  bool host_scaled = true;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fleet_pipeline", run_fleet_pipeline, {"monitor", "collect"}},
      {"ingest_soak", run_ingest_soak, {"collect"}},
      {"stencil_perfctr", run_stencil_perfctr, {"api", "workloads"}},
      {"agent_latency", run_agent_latency, {"monitor"}, false},
  };
  return all;
}

/// Set-ups a --trace 0 run times at least, so setup_s is a median.
constexpr int kMinSetups = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  double seconds = 10;
  bool trace = false;
  bool reduced = false;
  std::string trace_dir;
};

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--reduced] [--trace-dir <dir>]\n"
               "workloads:",
               message.c_str());
  for (const Workload& w : workloads()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()), w.name.data());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--reduced") {
      o.reduced = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end) usage("bad --seed " + value);
      o.has_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end || !(o.seconds > 0) || o.seconds > 120) {
        usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      o.trace = value == "1";
    } else if (arg == "--trace-dir") {
      o.trace_dir = value;
    } else {
      usage("unknown argument " + arg);
    }
  }
  if (!o.has_seed) usage("--seed is required");
  bool known = false;
  for (const Workload& w : workloads()) known = known || w.name == o.workload;
  if (!known) usage("unknown workload '" + o.workload + "'");
  return o;
}

std::string json_string(std::string_view s) { return "\"" + std::string(s) + "\""; }

/// The run metadata line: machine, build, seed and every workload's shape.
void print_meta(const Options& o,
                const std::vector<std::pair<std::string_view, PassResult*>>& passes) {
  std::string shapes;
  for (const auto& [name, pass] : passes) {
    std::string items;
    for (const std::string& kv : pass->shape) {
      items += (items.empty() ? "" : ", ") + json_string(kv);
    }
    shapes += (shapes.empty() ? "" : ", ") + json_string(name) + ": [" + items + "]";
  }
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"run\": %s, \"hardware_threads\": %u, "
      "\"compiler\": %s, \"build_type\": %s, \"shapes\": {%s}}}\n",
      json_string(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
      o.seconds, o.trace ? 1 : 0, o.reduced ? "\"reduced\"" : "\"full\"",
      std::thread::hardware_concurrency(), json_string(PERFBENCH_COMPILER).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), shapes.c_str());
}

/// CPU cost of the run phases per item: process CPU time, every thread,
/// so on agent_latency it leaves out the simulated sleeps.
void add_cpu_cost(PassResult& r) {
  r.detail.set("cpu_us_per_item", r.run_cpu_s * 1e6 / r.items, "us");
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.to_json().c_str());
  std::fflush(stdout);
}

int run_untraced(const Options& o) {
  const Workload* workload = nullptr;
  for (const Workload& w : workloads()) {
    if (w.name == o.workload) workload = &w;
  }
  PassPlan plan;
  plan.seed = o.seed;
  plan.reduced = o.reduced;
  plan.budget_seconds = o.seconds;
  plan.min_setups = kMinSetups;
  plan.probe_host = true;
  PassResult r = workload->run(plan);
  add_cpu_cost(r);
  r.detail.set("setup_wall_s", median(r.setup_s), "s");
  r.detail.set("host_speed", r.run_ref_s / r.run_wall_s, "ratio");

  Metrics metrics;
  metrics.set("setup_s", median(r.setup_ref_s), "s");
  metrics.set("items_per_s",
              r.items / (workload->host_scaled ? r.run_ref_s : r.run_wall_s), "1/s");
  metrics.set("peak_rss_mb", peak_rss_mb(), "MB");

  print_meta(o, {{workload->name, &r}});
  std::printf("{\"detail\": {\"rounds\": %d, \"setups\": %zu, \"metrics\": %s}}\n",
              r.rounds, r.setup_s.size(), r.detail.to_json().c_str());
  for (const std::string& error : r.errors) std::fprintf(stderr, "FAIL: %s\n", error.c_str());
  print_result(r.errors.empty(), r.attempted, r.failed, metrics);
  return r.errors.empty() ? 0 : 1;
}

int run_traced(const Options& o) {
  Metrics metrics;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<PassResult> untraced(workloads().size());
  if (!o.trace_dir.empty()) std::filesystem::create_directories(o.trace_dir);

  for (std::size_t i = 0; i < workloads().size(); ++i) {
    const Workload& w = workloads()[i];
    const std::string prefix = std::string(w.name) + ".";
    PassPlan plan;
    plan.seed = o.seed;
    plan.reduced = o.reduced;
    plan.budget_seconds = o.seconds / (2.0 * static_cast<double>(workloads().size()));
    // One unmeasured round first, so neither pass pays the cold start.
    PassPlan warm_plan = plan;
    warm_plan.fixed_rounds = 1;
    PassResult warm = w.run(warm_plan);
    PassResult& base = untraced[i];
    base = w.run(plan);
    add_cpu_cost(base);

    Tracer tracer;
    plan.fixed_rounds = base.rounds;
    plan.tracer = &tracer;
    PassResult traced = w.run(plan);
    const TraceSummary summary = tracer.summarize();

    if (!o.trace_dir.empty() &&
        !tracer.write_csv(o.trace_dir + "/" + std::string(w.name) + ".spans.csv")) {
      errors.push_back(prefix + "spans: cannot write " + o.trace_dir);
    }
    // The round spans must cover the wall time the pass measured itself.
    const double spanned_s = total(tracer.durations_us(SpanKind::kRound)) * 1e-6;
    const double measured_s = total(traced.round_s);
    if (summary.nesting_errors || std::abs(spanned_s - measured_s) > 0.01 * measured_s) {
      errors.push_back(prefix + "spans: self times do not reconcile with wall time");
    }
    metrics.merge(base.detail, prefix);
    metrics.merge(traced.layers, prefix);
    // Median rounds, so one round slowed by the host does not read as
    // tracing overhead.
    metrics.set(prefix + "trace.overhead_frac",
                median(traced.round_s) / median(base.round_s) - 1.0, "ratio");
    metrics.set(prefix + "trace.unattributed_frac",
                summary.self_of("bench") / summary.thread_s, "ratio");
    for (const std::string_view layer : w.layers) {
      metrics.set(prefix + "trace.self_frac." + std::string(layer),
                  summary.self_of(layer) / summary.thread_s, "ratio");
    }
    for (PassResult* pass : {&warm, &base, &traced}) {
      attempted += pass->attempted;
      failed += pass->failed;
      errors.insert(errors.end(), pass->errors.begin(), pass->errors.end());
    }
  }

  std::vector<std::pair<std::string_view, PassResult*>> passes;
  for (std::size_t i = 0; i < workloads().size(); ++i) {
    passes.emplace_back(workloads()[i].name, &untraced[i]);
  }
  print_meta(o, passes);
  for (const std::string& error : errors) std::fprintf(stderr, "FAIL: %s\n", error.c_str());
  print_result(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return options.trace ? perfbench::run_traced(options)
                         : perfbench::run_untraced(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
