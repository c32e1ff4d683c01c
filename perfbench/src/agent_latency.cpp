// agent_latency — likwid-agent's own scheduler path: monitor::Agent::run
// over 64 westmere-ep nodes sampling MEM, each step blocking on a
// simulated 400 us device access skewed by 2% per node id, on one worker
// per hardware thread (at most four). Latency-bound where fleet_pipeline
// is compute-bound: most of a worker's time is overlapped sleeps, which
// monitor.sleep_share reports apart from CPU work.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "monitor/agent.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace likwid;

struct Shape {
  int nodes;
  int steps;          ///< sampling steps per node per round
  double latency_us;  ///< simulated device latency of node 0
  int checked_nodes;  ///< prefix of the fleet re-run serially
};

constexpr double kSkew = 0.02;
constexpr double kIntervalSeconds = 0.1;

/// Samples folded into the rollups: one count per (machine, window).
std::uint64_t folded_samples(const std::vector<monitor::SeriesPoint>& rows) {
  std::set<std::pair<int, int>> windows;
  std::uint64_t samples = 0;
  for (const monitor::SeriesPoint& row : rows) {
    if (windows.emplace(row.machine_id, row.window).second) samples += row.stats.count;
  }
  return samples;
}

}  // namespace

PassResult run_agent_latency(const PassPlan& plan) {
  const Shape shape = plan.reduced ? Shape{8, 10, 50.0, 2} : Shape{64, 40, 400.0, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = std::clamp(static_cast<int>(hw), 1, 4);
  PassResult result;
  result.shape = {"nodes=" + std::to_string(shape.nodes),
                  "steps_per_round=" + std::to_string(shape.steps),
                  "machine=westmere-ep", "groups=MEM",
                  "device_latency_us=" + std::to_string(shape.latency_us),
                  "latency_skew=0.02", "workers=" + std::to_string(workers)};

  monitor::AgentConfig cfg;
  cfg.monitor.machine_preset = "westmere-ep";
  cfg.monitor.groups = {"MEM"};
  cfg.monitor.interval_seconds = kIntervalSeconds;
  cfg.monitor.device_latency_us = shape.latency_us;
  cfg.monitor.device_latency_skew = kSkew;
  cfg.monitor.seed = plan.seed;
  cfg.fleet.num_threads = workers;
  cfg.num_machines = shape.nodes;
  // run() takes ceil(duration / interval) steps; half an interval short
  // of the target keeps that exact under rounding.
  cfg.duration_seconds = (shape.steps - 0.5) * kIntervalSeconds;

  // The reference: the same machine ids, untimed, on the serial loop.
  monitor::AgentConfig serial_cfg = cfg;
  serial_cfg.num_machines = shape.checked_nodes;
  serial_cfg.monitor.device_latency_us = 0;  // sleeps never touch samples
  serial_cfg.fleet.num_threads = 1;

  // Configured sleep per fleet step, summed over nodes.
  double sleep_per_step_s = 0;
  for (int i = 0; i < shape.nodes; ++i) {
    sleep_per_step_s += shape.latency_us * (1 + kSkew * i) * 1e-6;
  }

  TraceBuffer* tb = plan.tracer ? plan.tracer->add_thread() : nullptr;
  const auto set_up = [&] {
    Scope span(tb, SpanKind::kAgentCtor);
    return std::make_unique<monitor::Agent>(cfg);
  };

  std::vector<double> steals, slices, batch_steps, batches_lost, sleep_share;
  const std::int64_t pass_start = now_ns();
  while (plan.more_rounds(result.rounds, pass_start)) {
    const std::int64_t round_start = now_ns();
    CycleTimer cycle(plan, result);
    std::unique_ptr<monitor::Agent> agent;
    double run_s = 0;
    {
      Scope round(tb, SpanKind::kRound, static_cast<std::uint64_t>(result.rounds));
      cycle.begin_setup();
      agent = set_up();
      cycle.end_setup();
      cycle.begin_run();
      const std::int64_t run_start = now_ns();
      {
        Scope span(tb, SpanKind::kAgentRun);
        agent->run();
      }
      run_s = seconds_between(run_start, now_ns());
      cycle.end_run();
    }
    result.round_s.push_back(seconds_between(round_start, now_ns()));

    // Checks, outside the timed and traced round.
    const std::vector<monitor::SeriesPoint> rows = agent->rollups();
    const std::uint64_t expected =
        static_cast<std::uint64_t>(shape.nodes) * static_cast<std::uint64_t>(shape.steps);
    const std::uint64_t folded = folded_samples(rows);
    const monitor::FleetTransportStats& transport = agent->transport();
    const std::size_t quarantined = agent->health().quarantined_nodes().size();

    monitor::Agent serial(serial_cfg);
    serial.run();
    const std::vector<monitor::SeriesPoint> reference = serial.rollups();
    std::vector<monitor::SeriesPoint> subset;
    for (const monitor::SeriesPoint& row : rows) {
      if (row.machine_id < shape.checked_nodes) subset.push_back(row);
    }
    const bool same = !reference.empty() && same_rollup(subset, reference);

    if (agent->steps() != static_cast<std::uint64_t>(shape.steps)) {
      result.fail("agent_latency: fleet ran the wrong number of steps");
    }
    if (workers > 1 && !agent->threaded()) {
      result.fail("agent_latency: run did not complete on the threaded scheduler");
    }
    if (quarantined || transport.batches_lost) {
      result.fail("agent_latency: batches lost or nodes quarantined");
    }
    if (folded != expected) result.fail("agent_latency: samples missing from the rollups");
    if (!same) result.fail("agent_latency: threaded rollups differ from the serial agent");
    result.attempted += expected;
    result.failed += (expected - std::min(expected, folded)) + (same ? 0 : 1);
    result.items += static_cast<double>(folded);
    steals.push_back(static_cast<double>(transport.steals));
    slices.push_back(static_cast<double>(transport.slices_folded));
    batch_steps.push_back(static_cast<double>(transport.batch_steps));
    batches_lost.push_back(static_cast<double>(transport.batches_lost));
    sleep_share.push_back(sleep_per_step_s * static_cast<double>(agent->steps()) /
                          (workers * run_s));
    ++result.rounds;
  }
  while (static_cast<int>(result.setup_s.size()) < plan.min_setups) {
    CycleTimer cycle(plan, result);
    cycle.begin_setup();
    const std::unique_ptr<monitor::Agent> spare = set_up();
    cycle.end_setup();
    cycle.book();
  }

  result.detail.set("samples_per_s", result.items / result.run_wall_s, "1/s");

  if (const Tracer* tr = plan.tracer) {
    Metrics& m = result.layers;
    m.set("monitor.collector_ctor_ms",
          median(tr->durations_us(SpanKind::kAgentCtor)) * 1e-3 / shape.nodes, "ms");
    m.set("monitor.agent_run_s", median(tr->durations_us(SpanKind::kAgentRun)) * 1e-6, "s");
    m.set("monitor.steals", median(steals), "count");
    m.set("monitor.slices", median(slices), "count");
    m.set("monitor.batch_steps", median(batch_steps), "count");
    m.set("monitor.batches_lost", median(batches_lost), "count");
    m.set("monitor.sleep_share", median(sleep_share), "ratio");
  }
  return result;
}

}  // namespace perfbench
