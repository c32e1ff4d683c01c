// collect_round.hpp — what both collector workloads do after a round: the
// mixed query set, and the store's retention accounting.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collect/query.hpp"
#include "collect/service.hpp"
#include "monitor/aggregator.hpp"
#include "monitor/config.hpp"
#include "trace.hpp"

namespace perfbench {

struct QueryAnswers {
  std::vector<std::vector<likwid::monitor::SeriesPoint>> rollups;  ///< per node
  std::uint64_t queries = 0;
  std::uint64_t wrong_shape = 0;  ///< answers with the wrong number of nodes
};

/// The mixed query set: a rollup of every node, fleet_stats and top_k of
/// each schema's first metric, then node_status. Every call is timed into
/// `latencies_us` and traced into `tb`.
QueryAnswers run_query_set(
    const likwid::collect::QueryEngine& query, std::size_t nodes,
    const std::vector<std::shared_ptr<const likwid::monitor::MetricSchema>>& schemas,
    std::size_t top_k, TraceBuffer* tb, std::vector<double>& latencies_us);

/// Whether every shard keeps
/// samples_appended == raw + buckets + summaries + forgotten.
bool store_tiers_close(const likwid::collect::CollectorService& service);

}  // namespace perfbench
