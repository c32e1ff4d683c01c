// stencil_perfctr — the paper's Case Study 2 / Table II as likwid-perfctr
// runs it: an api::Session on one Nehalem EP socket (cpus 0-3) counts
// UNC_L3_LINES_IN_ANY / UNC_L3_LINES_OUT_ANY around run_workload of the
// N=120 Jacobi smoother in its threaded, nontemporal and wavefront
// variants. Its time is in cachesim/workloads, which simulate the sweeps
// line by line; the uncore counts are exact and must never change.
#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "trace.hpp"
#include "workloads/jacobi.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace likwid;

struct Variant {
  const char* name;
  workloads::JacobiVariant kind;
  int sweeps;  ///< likwid-perfctr's choice: 4, or 2 x threads for wavefront
};

constexpr std::array<Variant, 3> kVariants = {{
    {"threaded", workloads::JacobiVariant::kThreaded, 4},
    {"nt", workloads::JacobiVariant::kThreadedNT, 4},
    {"wavefront", workloads::JacobiVariant::kWavefront, 8},
}};

constexpr char kEvents[] = "UNC_L3_LINES_IN_ANY:UPMC0,UNC_L3_LINES_OUT_ANY:UPMC1";

struct Counts {
  double lines_in = 0;
  double lines_out = 0;
  double sim_seconds = 0;
  double updates = 0;

  double bytes_per_update() const { return (lines_in + lines_out) * 64.0 / updates; }
  double mlups_sim() const { return updates / sim_seconds / 1e6; }
  bool operator==(const Counts& o) const {
    return same_bits(lines_in, o.lines_in) && same_bits(lines_out, o.lines_out) &&
           same_bits(sim_seconds, o.sim_seconds) && same_bits(updates, o.updates);
  }
};

}  // namespace

PassResult run_stencil_perfctr(const PassPlan& plan) {
  const int n = plan.reduced ? 100 : 120;
  const std::vector<int> cpus = {0, 1, 2, 3};
  PassResult result;
  result.shape = {"machine=nehalem-ep", "cpus=0-3", "n=" + std::to_string(n),
                  "variants=threaded(4 sweeps);nt(4);wavefront(8)",
                  "events=UNC_L3_LINES_IN_ANY;UNC_L3_LINES_OUT_ANY"};

  TraceBuffer* tb = plan.tracer ? plan.tracer->add_thread() : nullptr;
  struct Node {
    std::unique_ptr<api::Session> session;
    std::unique_ptr<workloads::JacobiStencil> jacobi;
  };
  const auto set_up = [&](std::size_t v, TraceBuffer* spans) {
    Node node;
    {
      Scope span(spans, SpanKind::kSessionBuild, v);
      node.session = api::Session::configure()
                         .machine("nehalem-ep")
                         .seed(plan.seed)
                         .cpus(cpus)
                         .custom(kEvents)
                         .build();
    }
    for (const int c : cpus) node.session->kernel().scheduler().add_busy(c, 1);
    workloads::JacobiConfig cfg;
    cfg.n = n;
    cfg.variant = kVariants[v].kind;
    cfg.sweeps = kVariants[v].sweeps;
    node.jacobi = std::make_unique<workloads::JacobiStencil>(cfg);
    return node;
  };
  workloads::Placement placement;
  placement.cpus = cpus;
  workloads::RunOptions options;
  options.quanta = 2;  // likwid-perfctr with one event set

  std::array<std::optional<Counts>, kVariants.size()> reference;
  std::uint64_t mismatches = 0;
  int repeats = 0;
  // An untimed measurement (the reproduction check) records no spans.
  const auto measure = [&](std::size_t v, bool timed) {
    TraceBuffer* spans = timed ? tb : nullptr;
    CycleTimer cycle(plan, result);
    cycle.begin_setup();
    Node node = set_up(v, spans);
    cycle.end_setup();
    api::Session& session = *node.session;
    cycle.begin_run();
    Counts counts;
    api::ResultTable table;
    {
      Scope span(spans, SpanKind::kSessionStart, v);
      session.start();
    }
    {
      Scope span(spans, SpanKind::kRunWorkload, v);
      counts.sim_seconds =
          workloads::run_workload(session.kernel(), *node.jacobi, placement, options);
    }
    {
      Scope span(spans, SpanKind::kSessionStop, v);
      session.stop();
    }
    {
      Scope span(spans, SpanKind::kMeasurement, v);
      table = session.measurement(0);
    }
    if (timed) cycle.end_run();
    const core::PerfCtr& ctr = session.counters();
    const int lock = ctr.socket_lock_cpus().front();
    counts.lines_in = ctr.extrapolated_count(0, lock, "UNC_L3_LINES_IN_ANY");
    counts.lines_out = ctr.extrapolated_count(0, lock, "UNC_L3_LINES_OUT_ANY");
    counts.updates = node.jacobi->total_updates();
    std::size_t uncore_rows = 0;
    for (const api::ResultTable::EventRow& row : table.events) {
      uncore_rows += row.event == "UNC_L3_LINES_IN_ANY" || row.event == "UNC_L3_LINES_OUT_ANY";
    }
    if (uncore_rows != 2 || counts.lines_in <= 0 || counts.lines_out <= 0) {
      result.fail(std::string("stencil_perfctr: no uncore counts for ") + kVariants[v].name);
      ++mismatches;
    }
    if (!reference[v]) {
      reference[v] = counts;
    } else {
      ++repeats;
      if (!(*reference[v] == counts)) {
        result.fail(std::string("stencil_perfctr: repeat of ") + kVariants[v].name +
                    " changed its counts");
        ++mismatches;
      }
    }
    ++result.attempted;
    if (timed) result.items += counts.updates;
  };

  const std::int64_t pass_start = now_ns();
  while (plan.more_rounds(result.rounds, pass_start)) {
    const std::int64_t round_start = now_ns();
    {
      Scope round(tb, SpanKind::kRound, static_cast<std::uint64_t>(result.rounds));
      for (std::size_t v = 0; v < kVariants.size(); ++v) measure(v, true);
    }
    result.round_s.push_back(seconds_between(round_start, now_ns()));
    ++result.rounds;
  }
  // A single round repeats nothing: re-run one variant, untimed, so every
  // run checks that the counts reproduce.
  if (repeats == 0) measure(plan.seed % kVariants.size(), false);
  while (static_cast<int>(result.setup_s.size()) < plan.min_setups) {
    CycleTimer cycle(plan, result);
    cycle.begin_setup();
    const Node spare = set_up(result.setup_s.size() % kVariants.size(), nullptr);
    cycle.end_setup();
    cycle.book();
  }

  // Table II's shape: nontemporal stores cut the volume per update,
  // temporal blocking cuts it most, and MLUPS rise in the same order.
  const Counts& threaded = *reference[0];
  const Counts& nt = *reference[1];
  const Counts& wavefront = *reference[2];
  if (!(nt.bytes_per_update() < threaded.bytes_per_update() &&
        wavefront.bytes_per_update() < nt.bytes_per_update())) {
    result.fail("stencil_perfctr: data volume ordering threaded > nt > wavefront broken");
    ++mismatches;
  }
  if (!(threaded.mlups_sim() < nt.mlups_sim() && nt.mlups_sim() < wavefront.mlups_sim())) {
    result.fail("stencil_perfctr: MLUPS ordering threaded < nt < wavefront broken");
    ++mismatches;
  }
  result.failed += mismatches;

  result.detail.set("updates_per_s", result.items / result.run_wall_s, "1/s");

  if (const Tracer* tr = plan.tracer) {
    Metrics& m = result.layers;
    m.set("api.session_build_ms",
          median(tr->durations_us(SpanKind::kSessionBuild)) * 1e-3, "ms");
    m.set("api.start_us", median(tr->durations_us(SpanKind::kSessionStart)), "us");
    m.set("api.stop_us", median(tr->durations_us(SpanKind::kSessionStop)), "us");
    m.set("api.measurement_us", median(tr->durations_us(SpanKind::kMeasurement)), "us");
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      const std::string name = kVariants[v].name;
      m.set("workloads.run_workload_s." + name,
            median(tr->durations_us(SpanKind::kRunWorkload, v)) * 1e-6, "s");
    }
    for (std::size_t v = 0; v < kVariants.size(); ++v) {
      const std::string name = kVariants[v].name;
      m.set("cachesim.l3_lines_in." + name, reference[v]->lines_in, "count");
      m.set("cachesim.l3_lines_out." + name, reference[v]->lines_out, "count");
      m.set("workloads.mlups_sim." + name, reference[v]->mlups_sim(), "MLUP/s");
    }
  }
  return result;
}

}  // namespace perfbench
