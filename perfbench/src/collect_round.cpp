#include "collect_round.hpp"

#include <algorithm>
#include <string>

#include "api/result_table.hpp"
#include "core/name_table.hpp"

namespace perfbench {

using namespace likwid;

QueryAnswers run_query_set(
    const collect::QueryEngine& query, std::size_t nodes,
    const std::vector<std::shared_ptr<const monitor::MetricSchema>>& schemas,
    std::size_t top_k, TraceBuffer* tb, std::vector<double>& latencies_us) {
  QueryAnswers answers;
  answers.rollups.resize(nodes);
  const auto timed = [&](SpanKind kind, std::uint64_t id, auto&& call) {
    const std::int64_t t0 = now_ns();
    {
      Scope span(tb, kind, id);
      call();
    }
    latencies_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    ++answers.queries;
  };
  for (std::size_t node = 0; node < nodes; ++node) {
    timed(SpanKind::kQueryRollup, node,
          [&] { answers.rollups[node] = query.rollup(node); });
  }
  for (const auto& schema : schemas) {
    const std::string& group = core::resolve_name(schema->group_id);
    const std::string& metric = core::resolve_name(schema->metric_ids.front());
    api::ResultTable stats, top;
    timed(SpanKind::kQueryFleetStats, 0,
          [&] { stats = query.fleet_stats(group, metric); });
    timed(SpanKind::kQueryTopK, 0, [&] { top = query.top_k(group, metric, top_k); });
    answers.wrong_shape += stats.cpus.size() != nodes;
    answers.wrong_shape += top.cpus.size() != std::min(top_k, nodes);
  }
  api::ResultTable status;
  timed(SpanKind::kQueryNodeStatus, 0, [&] { status = query.node_status(); });
  answers.wrong_shape += status.cpus.size() != nodes;
  return answers;
}

bool store_tiers_close(const collect::CollectorService& service) {
  for (std::size_t s = 0; s < service.num_shards(); ++s) {
    const collect::TimeSeriesStore& store = service.shard(s);
    if (store.stats().samples_appended !=
        store.samples_in_raw() + store.samples_in_buckets() +
            store.samples_in_summaries() + store.stats().samples_forgotten) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
