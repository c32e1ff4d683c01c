// fleet_pipeline — one sample's whole path: real monitor::Collector nodes
// stepped by one producer thread, each sample folded, encoded eight to a
// frame and published into a one-ingest-thread CollectorService whose raw
// tier holds the whole round, then every node queried back.
//
// A round builds the fleet from scratch (that is the set-up), so every
// round of a run replays the same sample streams and the round-to-round
// spread is the machine's, not the workload's.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "collect_round.hpp"
#include "collect/query.hpp"
#include "collect/service.hpp"
#include "collect/wire.hpp"
#include "monitor/aggregator.hpp"
#include "monitor/collector.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace likwid;

struct Shape {
  int nodes;
  int steps;  ///< samples per node per round
};

constexpr std::size_t kFrameSamples = 8;
constexpr int kWindowSamples = 5;
constexpr std::size_t kChunkPoints = 64;
constexpr std::size_t kTopK = 4;

struct Fleet {
  std::vector<std::unique_ptr<monitor::Collector>> collectors;
  std::unique_ptr<collect::CollectorService> service;
  std::vector<collect::StreamEncoder> encoders;
  std::vector<monitor::WindowFolder> folders;  ///< the benchmark's own fold
  std::vector<std::vector<monitor::Sample>> pending;
};

}  // namespace

PassResult run_fleet_pipeline(const PassPlan& plan) {
  const Shape shape = plan.reduced ? Shape{4, 16} : Shape{16, 128};
  PassResult result;
  result.shape = {"nodes=" + std::to_string(shape.nodes),
                  "steps_per_round=" + std::to_string(shape.steps),
                  "machine=westmere-ep", "groups=MEM;FLOPS_DP",
                  "frame_samples=" + std::to_string(kFrameSamples),
                  "producer_threads=1", "ingest_threads=1"};

  monitor::MonitorConfig node_cfg;
  node_cfg.machine_preset = "westmere-ep";
  node_cfg.groups = {"MEM", "FLOPS_DP"};
  node_cfg.rotate_groups = true;
  node_cfg.window_samples = kWindowSamples;
  node_cfg.device_latency_us = 0;
  node_cfg.seed = plan.seed;

  collect::ServiceConfig service_cfg;
  service_cfg.num_nodes = static_cast<std::size_t>(shape.nodes);
  service_cfg.ingest_threads = 1;
  // A drop needs the ingest thread to stall this long; any drop is a
  // failure of the run, never an expected outcome.
  service_cfg.publish_deadline_seconds = 30.0;
  service_cfg.store.chunk_points = kChunkPoints;
  // The raw tier keeps the whole round, so rollups see every sample.
  service_cfg.store.raw_chunks_per_series =
      static_cast<std::size_t>(shape.steps) / kChunkPoints + 2;

  TraceBuffer* tb = plan.tracer ? plan.tracer->add_thread() : nullptr;
  const auto set_up = [&] {
    Fleet fleet;
    for (int n = 0; n < shape.nodes; ++n) {
      Scope span(tb, SpanKind::kCollectorCtor, static_cast<std::uint64_t>(n));
      fleet.collectors.push_back(
          std::make_unique<monitor::Collector>(n, node_cfg));
    }
    {
      Scope span(tb, SpanKind::kServiceCtor);
      fleet.service = std::make_unique<collect::CollectorService>(service_cfg);
    }
    for (int n = 0; n < shape.nodes; ++n) {
      fleet.encoders.emplace_back(static_cast<std::uint64_t>(n));
      fleet.folders.emplace_back(n, kWindowSamples);
    }
    fleet.pending.resize(static_cast<std::size_t>(shape.nodes));
    return fleet;
  };

  std::vector<double> agent_us;
  std::vector<double> query_us;
  double wire_bytes = 0;
  double samples_encoded = 0;
  std::uint64_t frames_published = 0, frames_dropped = 0;
  std::uint64_t samples_decoded = 0, decode_errors = 0;

  const std::int64_t pass_start = now_ns();
  while (plan.more_rounds(result.rounds, pass_start)) {
    const std::int64_t round_start = now_ns();
    CycleTimer cycle(plan, result);
    Fleet fleet;
    QueryAnswers answers;
    std::uint64_t dropped_samples = 0;
    {
      Scope round(tb, SpanKind::kRound, static_cast<std::uint64_t>(result.rounds));
      cycle.begin_setup();
      fleet = set_up();
      cycle.end_setup();
      collect::CollectorService& service = *fleet.service;

      const auto ship = [&](std::uint64_t node, collect::Frame frame) {
        wire_bytes += static_cast<double>(frame.data.size());
        bool ok = false;
        {
          Scope span(tb, SpanKind::kPublish, node);
          ok = service.publish(node, std::move(frame.data));
        }
        if (!ok) {
          fleet.encoders[node].rollback_schemas(frame);
          dropped_samples += frame.sample_count;
        }
      };
      const auto encode = [&](std::uint64_t node) {
        collect::Frame frame;
        {
          Scope span(tb, SpanKind::kEncode, node);
          frame = fleet.encoders[node].encode_batch(fleet.pending[node]);
        }
        samples_encoded += static_cast<double>(frame.sample_count);
        fleet.pending[node].clear();
        ship(node, std::move(frame));
      };

      cycle.begin_run();
      {
        Scope span(tb, SpanKind::kServiceStart);
        service.start();
      }
      for (int n = 0; n < shape.nodes; ++n) {
        const auto node = static_cast<std::uint64_t>(n);
        ship(node, fleet.encoders[node].header());
      }
      for (int step = 0; step < shape.steps; ++step) {
        const bool last = step + 1 == shape.steps;
        for (int n = 0; n < shape.nodes; ++n) {
          const auto node = static_cast<std::uint64_t>(n);
          monitor::Collector& collector = *fleet.collectors[node];
          const std::int64_t t0 = now_ns();
          {
            Scope span(tb, SpanKind::kStep, node);
            collector.step();
          }
          const monitor::Sample& sample = collector.samples().back();
          {
            Scope span(tb, SpanKind::kFold, node);
            fleet.folders[node].add(sample);
          }
          std::int64_t cost = now_ns() - t0;
          fleet.pending[node].push_back(sample);
          if (fleet.pending[node].size() == kFrameSamples || last) {
            const std::int64_t t1 = now_ns();
            encode(node);
            cost += now_ns() - t1;
          }
          agent_us.push_back(static_cast<double>(cost) * 1e-3);
        }
      }
      {
        Scope span(tb, SpanKind::kServiceStop);
        service.stop();
      }
      cycle.end_run();

      answers = run_query_set(collect::QueryEngine(service, kWindowSamples),
                              static_cast<std::size_t>(shape.nodes),
                              fleet.collectors.front()->schemas(), kTopK, tb, query_us);
    }
    result.round_s.push_back(seconds_between(round_start, now_ns()));

    // Checks, outside the timed and traced round.
    const collect::CollectorService& service = *fleet.service;
    const collect::DecodeStats decoded = service.decode_stats();
    const collect::StoreStats stored = service.store_stats();
    const auto produced = static_cast<std::uint64_t>(shape.nodes) *
                          static_cast<std::uint64_t>(shape.steps);
    std::uint64_t mismatched_nodes = 0;
    for (int n = 0; n < shape.nodes; ++n) {
      monitor::WindowFolder& folder = fleet.folders[static_cast<std::size_t>(n)];
      folder.finish();
      mismatched_nodes += !same_rollup(folder.points(),
                                       answers.rollups[static_cast<std::size_t>(n)]);
    }
    const std::uint64_t unattributed =
        produced - std::min(produced, decoded.samples + dropped_samples);
    if (dropped_samples) result.fail("fleet_pipeline: frames dropped");
    if (decoded.decode_errors()) result.fail("fleet_pipeline: decode errors");
    if (unattributed) result.fail("fleet_pipeline: samples missing from the store");
    if (!store_tiers_close(service) || stored.samples_appended != decoded.samples) {
      result.fail("fleet_pipeline: store retention accounting does not close");
    }
    if (mismatched_nodes) {
      result.fail("fleet_pipeline: query rollup differs from the in-process fold");
    }
    if (answers.wrong_shape) result.fail("fleet_pipeline: query returned a wrong shape");
    result.attempted += produced + answers.queries;
    result.failed += dropped_samples + unattributed + mismatched_nodes + answers.wrong_shape;
    result.items += static_cast<double>(decoded.samples);
    frames_published += service.frames_published();
    frames_dropped += service.frames_dropped();
    samples_decoded += decoded.samples;
    decode_errors += decoded.decode_errors();
    ++result.rounds;
  }
  while (static_cast<int>(result.setup_s.size()) < plan.min_setups) {
    CycleTimer cycle(plan, result);
    cycle.begin_setup();
    const Fleet spare = set_up();
    cycle.end_setup();
    cycle.book();
  }

  result.detail.set("samples_per_s", result.items / result.run_wall_s, "1/s");
  result.detail.set("agent_us_p50", quantile(agent_us, 0.50), "us");
  result.detail.set("agent_us_p99", quantile(agent_us, 0.99), "us");
  result.detail.set("agent_us_count", static_cast<double>(agent_us.size()), "count");
  result.detail.set("query_us_p50", quantile(query_us, 0.50), "us");
  result.detail.set("query_us_p99", quantile(query_us, 0.99), "us");
  result.detail.set("query_us_count", static_cast<double>(query_us.size()), "count");
  result.detail.set("bytes_per_sample", wire_bytes / samples_encoded, "B");

  if (const Tracer* tr = plan.tracer) {
    Metrics& m = result.layers;
    m.set("monitor.collector_ctor_ms",
          median(tr->durations_us(SpanKind::kCollectorCtor)) * 1e-3, "ms");
    const std::vector<double> step = tr->durations_us(SpanKind::kStep);
    m.set("monitor.step_us_p50", quantile(step, 0.50), "us");
    m.set("monitor.step_us_p99", quantile(step, 0.99), "us");
    m.set("monitor.step_calls", static_cast<double>(step.size()), "count");
    m.set("monitor.fold_us_p50", median(tr->durations_us(SpanKind::kFold)), "us");
    m.set("collect.encode_us_per_sample",
          total(tr->durations_us(SpanKind::kEncode)) / samples_encoded, "us");
    const std::vector<double> publish = tr->durations_us(SpanKind::kPublish);
    m.set("collect.publish_us_p50", quantile(publish, 0.50), "us");
    m.set("collect.publish_us_p99", quantile(publish, 0.99), "us");
    m.set("collect.frames_published", static_cast<double>(frames_published), "count");
    m.set("collect.frames_dropped", static_cast<double>(frames_dropped), "count");
    m.set("collect.samples_decoded", static_cast<double>(samples_decoded), "count");
    m.set("collect.decode_errors", static_cast<double>(decode_errors), "count");
    m.set("collect.drain_ms",
          median(tr->durations_us(SpanKind::kServiceStop)) * 1e-3, "ms");
    m.set("collect.query.rollup_us_p50",
          median(tr->durations_us(SpanKind::kQueryRollup)), "us");
    m.set("collect.query.fleet_stats_us_p50",
          median(tr->durations_us(SpanKind::kQueryFleetStats)), "us");
    m.set("collect.query.top_k_us_p50",
          median(tr->durations_us(SpanKind::kQueryTopK)), "us");
    m.set("collect.query.node_status_us_p50",
          median(tr->durations_us(SpanKind::kQueryNodeStatus)), "us");
  }
  return result;
}

}  // namespace perfbench
