// trace.hpp — span recording for the traced benchmark pass.
//
// The benchmark records a span around every call it makes into a layer's
// public functions: name, start, end, the enclosing span and a request id
// (node id, variant index). Spans live in memory, one buffer per thread,
// and are written out once the pass ends. A layer's self time is its
// spans' durations minus what their child spans cover; what the outermost
// (bench-layer) spans do not hand to any layer is the unattributed
// remainder.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  // bench: roots and the benchmark's own work between calls
  kRound,
  kProducer,
  kWaitProducers,
  // monitor
  kCollectorCtor,
  kStep,
  kFold,
  kAgentCtor,
  kAgentRun,
  // collect
  kServiceCtor,
  kServiceStart,
  kGenerate,
  kEncode,
  kPublish,
  kServiceStop,
  kQueryRollup,
  kQueryFleetStats,
  kQueryTopK,
  kQueryNodeStatus,
  // api
  kSessionBuild,
  kSessionStart,
  kSessionStop,
  kMeasurement,
  // workloads
  kRunWorkload,
  kCount,
};

struct SpanInfo {
  std::string_view name;
  std::string_view layer;
};

inline constexpr std::array<SpanInfo, static_cast<std::size_t>(SpanKind::kCount)>
    kSpanInfo = {{
        {"round", "bench"},
        {"producer", "bench"},
        {"wait_producers", "wait"},
        {"monitor.Collector", "monitor"},
        {"monitor.Collector::step", "monitor"},
        {"monitor.WindowFolder::add", "monitor"},
        {"monitor.Agent", "monitor"},
        {"monitor.Agent::run", "monitor"},
        {"collect.CollectorService", "collect"},
        {"collect.CollectorService::start", "collect"},
        {"collect.SampleGenerator::next", "collect"},
        {"collect.StreamEncoder::encode_batch", "collect"},
        {"collect.CollectorService::publish", "collect"},
        {"collect.CollectorService::stop", "collect"},
        {"collect.QueryEngine::rollup", "collect"},
        {"collect.QueryEngine::fleet_stats", "collect"},
        {"collect.QueryEngine::top_k", "collect"},
        {"collect.QueryEngine::node_status", "collect"},
        {"api.Session::build", "api"},
        {"api.Session::start", "api"},
        {"api.Session::stop", "api"},
        {"api.Session::measurement", "api"},
        {"workloads.run_workload", "workloads"},
    }};

static_assert(!kSpanInfo.back().name.empty(), "every SpanKind needs a SpanInfo");

inline const SpanInfo& info(SpanKind kind) {
  return kSpanInfo[static_cast<std::size_t>(kind)];
}

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint32_t parent = kNoParent;
  SpanKind kind = SpanKind::kRound;
};

/// One thread's spans. Only its owning thread writes it.
class TraceBuffer {
 public:
  explicit TraceBuffer(int thread) : thread_(thread) {}

  std::uint32_t open(SpanKind kind, std::uint64_t id) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    const std::uint32_t parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(Span{now_ns(), 0, id, parent, kind});
    stack_.push_back(index);
    return index;
  }
  void close(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  int thread() const noexcept { return thread_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  int thread_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; records nothing when `buffer` is null (tracing off).
class Scope {
 public:
  Scope(TraceBuffer* buffer, SpanKind kind, std::uint64_t id = 0)
      : buffer_(buffer), index_(buffer ? buffer->open(kind, id) : 0) {}
  ~Scope() {
    if (buffer_) buffer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TraceBuffer* buffer_;
  std::uint32_t index_;
};

/// Self-time accounting of a traced pass.
struct TraceSummary {
  /// Self seconds per layer ("bench" is the unattributed remainder,
  /// "wait" a thread blocked on other traced threads).
  std::vector<std::pair<std::string, double>> self_s;
  double thread_s = 0;  ///< root span time summed over threads, waits excluded
  /// Spans whose children overlap or leave their interval. With none,
  /// the self times of a thread partition its root spans exactly.
  std::uint64_t nesting_errors = 0;

  double self_of(std::string_view layer) const;
};

class Tracer {
 public:
  /// A buffer for one more thread; call before that thread starts.
  TraceBuffer* add_thread();

  /// Durations of every span of `kind` (optionally only request `id`),
  /// in microseconds.
  std::vector<double> durations_us(SpanKind kind) const;
  std::vector<double> durations_us(SpanKind kind, std::uint64_t id) const;

  TraceSummary summarize() const;

  /// One line per span: thread,span,layer,id,parent,start_ns,end_ns.
  bool write_csv(const std::string& path) const;

 private:
  std::deque<TraceBuffer> buffers_;
};

}  // namespace perfbench
