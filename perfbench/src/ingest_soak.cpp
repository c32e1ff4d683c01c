// ingest_soak — the collector on its own: a 1000-node SampleGenerator
// fleet streamed by two producer threads (next -> encode_batch -> publish)
// into two ingest threads, with store tiers small enough that chunks
// close, downsample, fold into summaries and are forgotten within a
// round; then rollup, fleet_stats, top_k and node_status over every node.
// Nearly all of its time is in collect, none in hwsim or monitor.
#include <algorithm>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "collect_round.hpp"
#include "collect/query.hpp"
#include "collect/service.hpp"
#include "collect/simfleet.hpp"
#include "collect/wire.hpp"
#include "monitor/aggregator.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace likwid;

struct Shape {
  std::size_t nodes;
  std::size_t steps;  ///< samples per node per round
};

constexpr std::size_t kProducers = 2;
constexpr std::size_t kIngestThreads = 2;
constexpr std::size_t kFrameSamples = 8;
constexpr int kWindowSamples = 5;
constexpr std::size_t kTopK = 10;

struct Soak {
  std::unique_ptr<collect::CollectorService> service;
  std::vector<collect::SampleGenerator> generators;
  std::vector<collect::StreamEncoder> encoders;
};

/// One producer thread's share of a round.
struct ProducerTally {
  double wire_bytes = 0;
  double samples_encoded = 0;
  std::uint64_t dropped_samples = 0;
  std::string error;
};

void produce(Soak& soak, std::size_t producer, std::size_t steps,
             TraceBuffer* tb, ProducerTally& tally) {
  Scope root(tb, SpanKind::kProducer, producer);
  const std::size_t nodes = soak.generators.size();
  const auto ship = [&](std::uint64_t node, collect::Frame frame) {
    tally.wire_bytes += static_cast<double>(frame.data.size());
    bool ok = false;
    {
      Scope span(tb, SpanKind::kPublish, node);
      ok = soak.service->publish(node, std::move(frame.data));
    }
    if (!ok) {
      soak.encoders[node].rollback_schemas(frame);
      tally.dropped_samples += frame.sample_count;
    }
  };
  for (std::size_t node = producer; node < nodes; node += kProducers) {
    ship(node, soak.encoders[node].header());
  }
  std::vector<monitor::Sample> batch;
  batch.reserve(kFrameSamples);
  for (std::size_t step = 0; step < steps; step += kFrameSamples) {
    const std::size_t batch_size = std::min(kFrameSamples, steps - step);
    for (std::size_t node = producer; node < nodes; node += kProducers) {
      {
        Scope span(tb, SpanKind::kGenerate, node);
        batch.clear();
        for (std::size_t i = 0; i < batch_size; ++i) {
          batch.push_back(soak.generators[node].next());
        }
      }
      collect::Frame frame;
      {
        Scope span(tb, SpanKind::kEncode, node);
        frame = soak.encoders[node].encode_batch(batch);
      }
      tally.samples_encoded += static_cast<double>(frame.sample_count);
      ship(node, std::move(frame));
    }
  }
}

}  // namespace

PassResult run_ingest_soak(const PassPlan& plan) {
  const Shape shape = plan.reduced ? Shape{50, 160} : Shape{1000, 256};
  PassResult result;
  result.shape = {"nodes=" + std::to_string(shape.nodes),
                  "steps_per_round=" + std::to_string(shape.steps),
                  "schemas=SOAK_MEM(6);SOAK_FLOPS(4)",
                  "frame_samples=" + std::to_string(kFrameSamples),
                  "producer_threads=" + std::to_string(kProducers),
                  "ingest_threads=" + std::to_string(kIngestThreads)};

  collect::SimFleetConfig fleet_cfg;
  fleet_cfg.num_nodes = shape.nodes;
  fleet_cfg.seed = plan.seed;
  fleet_cfg.schemas = {collect::make_sim_schema("SOAK_MEM", 6),
                       collect::make_sim_schema("SOAK_FLOPS", 4)};

  collect::ServiceConfig service_cfg;
  service_cfg.num_nodes = shape.nodes;
  service_cfg.ingest_threads = kIngestThreads;
  service_cfg.publish_deadline_seconds = 30.0;
  // Tiers small enough that every transition happens within one round:
  // 16-sample chunks, two kept raw, 1 s buckets (five samples of a series),
  // four buckets, then two-bucket summaries of which two are kept.
  service_cfg.store.chunk_points = 16;
  service_cfg.store.raw_chunks_per_series = 2;
  service_cfg.store.downsample_seconds = 1.0;
  service_cfg.store.buckets_per_series = 4;
  service_cfg.store.summary_factor = 2;
  service_cfg.store.summaries_per_series = 2;

  TraceBuffer* tb = plan.tracer ? plan.tracer->add_thread() : nullptr;
  std::vector<TraceBuffer*> producer_tb(kProducers, nullptr);
  if (plan.tracer) {
    for (TraceBuffer*& buffer : producer_tb) buffer = plan.tracer->add_thread();
  }
  const auto set_up = [&] {
    Soak soak;
    {
      Scope span(tb, SpanKind::kServiceCtor);
      soak.service = std::make_unique<collect::CollectorService>(service_cfg);
    }
    soak.generators.reserve(shape.nodes);
    soak.encoders.reserve(shape.nodes);
    for (std::size_t node = 0; node < shape.nodes; ++node) {
      soak.generators.emplace_back(fleet_cfg, node);
      soak.encoders.emplace_back(node);
    }
    return soak;
  };

  std::vector<double> query_us;
  double wire_bytes = 0;
  double samples_encoded = 0;
  std::uint64_t frames_published = 0, frames_dropped = 0;
  std::uint64_t samples_decoded = 0, decode_errors = 0;
  collect::StoreStats last_store;
  std::uint64_t last_retained_chunk_bytes = 0;

  const std::int64_t pass_start = now_ns();
  while (plan.more_rounds(result.rounds, pass_start)) {
    const std::int64_t round_start = now_ns();
    CycleTimer cycle(plan, result);
    Soak soak;
    QueryAnswers answers;
    std::vector<ProducerTally> tallies(kProducers);
    {
      Scope round(tb, SpanKind::kRound, static_cast<std::uint64_t>(result.rounds));
      cycle.begin_setup();
      soak = set_up();
      cycle.end_setup();

      cycle.begin_run();
      {
        Scope span(tb, SpanKind::kServiceStart);
        soak.service->start();
      }
      {
        Scope wait(tb, SpanKind::kWaitProducers);
        std::vector<std::thread> producers;
        for (std::size_t p = 0; p < kProducers; ++p) {
          producers.emplace_back([&, p] {
            try {
              produce(soak, p, shape.steps, producer_tb[p], tallies[p]);
            } catch (const std::exception& e) {
              tallies[p].error = e.what();
            }
          });
        }
        for (std::thread& thread : producers) thread.join();
      }
      {
        Scope span(tb, SpanKind::kServiceStop);
        soak.service->stop();
      }
      cycle.end_run();

      answers = run_query_set(collect::QueryEngine(*soak.service, kWindowSamples),
                              shape.nodes, fleet_cfg.schemas, kTopK, tb, query_us);
    }
    result.round_s.push_back(seconds_between(round_start, now_ns()));

    // Checks, outside the timed and traced round.
    const collect::CollectorService& service = *soak.service;
    const collect::QueryEngine query(service, kWindowSamples);
    std::uint64_t dropped_samples = 0;
    for (const ProducerTally& tally : tallies) {
      if (!tally.error.empty()) result.fail("ingest_soak: producer threw: " + tally.error);
      wire_bytes += tally.wire_bytes;
      samples_encoded += tally.samples_encoded;
      dropped_samples += tally.dropped_samples;
    }
    const collect::DecodeStats decoded = service.decode_stats();
    const auto produced = static_cast<std::uint64_t>(shape.nodes * shape.steps);
    const bool tiers_close = store_tiers_close(service);
    std::uint64_t retained_chunk_bytes = 0;
    for (std::size_t s = 0; s < service.num_shards(); ++s) {
      retained_chunk_bytes += service.shard(s).retained_chunk_bytes();
    }
    // Raw tier against the generator: every retained sample is the one
    // SampleGenerator::sample_at replays, and folding those replays gives
    // the rollup the query engine returned.
    std::uint64_t mismatched_nodes = 0;
    for (std::size_t node = 0; node < shape.nodes; ++node) {
      const std::vector<monitor::Sample> raw = query.raw_samples(node);
      monitor::WindowFolder folder(static_cast<int>(node), kWindowSamples);
      bool same = !raw.empty();
      for (const monitor::Sample& sample : raw) {
        const monitor::Sample replay = soak.generators[node].sample_at(sample.sequence);
        same = same && same_sample(sample, replay);
        folder.add(replay);
      }
      folder.finish();
      mismatched_nodes += !(same && same_rollup(folder.points(), answers.rollups[node]));
    }
    const std::uint64_t unattributed =
        produced - std::min(produced, decoded.samples + dropped_samples);
    if (dropped_samples) result.fail("ingest_soak: frames dropped");
    if (decoded.decode_errors()) result.fail("ingest_soak: decode errors");
    if (unattributed) result.fail("ingest_soak: samples missing from the store");
    if (!tiers_close) {
      result.fail("ingest_soak: appended != raw + buckets + summaries + forgotten");
    }
    if (mismatched_nodes) {
      result.fail("ingest_soak: raw tier or rollup differs from the generator");
    }
    if (answers.wrong_shape) result.fail("ingest_soak: query returned a wrong shape");
    result.attempted += produced + answers.queries;
    result.failed += dropped_samples + unattributed + mismatched_nodes + answers.wrong_shape +
                     (tiers_close ? 0 : 1);
    result.items += static_cast<double>(decoded.samples);
    frames_published += service.frames_published();
    frames_dropped += service.frames_dropped();
    samples_decoded += decoded.samples;
    decode_errors += decoded.decode_errors();
    last_store = service.store_stats();
    last_retained_chunk_bytes = retained_chunk_bytes;
    ++result.rounds;
  }
  while (static_cast<int>(result.setup_s.size()) < plan.min_setups) {
    CycleTimer cycle(plan, result);
    cycle.begin_setup();
    const Soak spare = set_up();
    cycle.end_setup();
    cycle.book();
  }

  result.detail.set("samples_per_s", result.items / result.run_wall_s, "1/s");
  result.detail.set("query_us_p50", quantile(query_us, 0.50), "us");
  result.detail.set("query_us_p99", quantile(query_us, 0.99), "us");
  result.detail.set("query_us_count", static_cast<double>(query_us.size()), "count");
  result.detail.set("bytes_per_sample", wire_bytes / samples_encoded, "B");

  if (const Tracer* tr = plan.tracer) {
    Metrics& m = result.layers;
    m.set("collect.generate_us_per_sample",
          total(tr->durations_us(SpanKind::kGenerate)) / samples_encoded, "us");
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
    m.set("collect.store.chunks_closed",
          static_cast<double>(last_store.chunks_closed), "count");
    m.set("collect.store.samples_downsampled",
          static_cast<double>(last_store.samples_downsampled), "count");
    m.set("collect.store.buckets_folded",
          static_cast<double>(last_store.buckets_folded), "count");
    m.set("collect.store.samples_forgotten",
          static_cast<double>(last_store.samples_forgotten), "count");
    m.set("collect.store.compression_ratio",
          static_cast<double>(last_store.bytes_uncompressed) /
              static_cast<double>(last_store.bytes_compressed),
          "ratio");
    m.set("collect.store.retained_chunk_bytes",
          static_cast<double>(last_retained_chunk_bytes), "B");
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
