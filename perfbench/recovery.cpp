// async-recovery, the first part of recovery-pipeline: the two
// Gauss-Seidel engines, each cell run once failure-free and once with one
// machine killed at coherency point 4 and re-admitted two barriers later.
// This is the only part that runs powergraph-async and lazygraph-vertex,
// and the only one where the recovery layer keeps a guard image at every
// coherency point. These engines never call Cluster::parallel_machines, so
// pool changes should leave it unchanged.
#include <memory>

#include "bench.hpp"

namespace lazybench {

namespace {

constexpr machine_t kMachines = 16;
constexpr double kScale = 0.125;
constexpr double kPrTol = 1e-3;
// The cut is fixed: async PageRank's simulated time varied 3.5x with the
// cut seed (0.46-1.61 sim-s over ten seeds), more than any bound allows.
// --seed picks the machine that dies at coherency point 4 instead.
constexpr std::uint64_t kPartitionSeed = 2018;

enum Mode { kUntraced = 0, kTraced = 1 };

struct Cell {
  engine::EngineKind kind;
  bool pagerank;
  bool killed;
  std::string name;
  std::vector<double> host[2] = {};
  std::vector<double> cpu;  // untraced mode
  bool have_metrics = false;
  sim::SimMetrics metrics = {};
  std::uint64_t supersteps = 0;
  sim::PerfReport report = {};
};

class AsyncRecovery {
 public:
  explicit AsyncRecovery(Run& run) : run_(run) {}
  void go();

 private:
  void run_pass(Mode mode, bool record);
  template <class P, class Data>
  void run_cell(Cell& c, Mode mode, bool record, const P& prog, Data& twin);

  Run& run_;
  Graph g_;
  std::shared_ptr<const partition::DistributedGraph> dg_;
  std::vector<Cell> cells_;
  std::string kill_plan_;
};

void AsyncRecovery::go() {
  Result& res = run_.result;
  const auto& spec = datasets::spec_by_name("livejournal-like");
  g_ = datasets::make(spec, kScale);
  run_.note("hash.livejournal-like") = std::to_string(g_.content_hash());
  kill_plan_ = std::to_string(derived_seed(run_.args.seed) % kMachines) +
               "@4:2";
  run_.note("kill_plan") = kill_plan_;
  res.layer["graph.edges"] += static_cast<double>(g_.num_edges());
  const partition::PartitionOptions popts{
      .kind = partition::CutKind::kCoordinated,
      .seed = kPartitionSeed,
      .threads = kClusterThreads};

  std::vector<double> setup, assign, build;
  partition::ArtifactStats stats;
  for (int r = 0; r < 8; ++r) {
    partition::ArtifactCache cache;
    Spans off;
    const double t = timed(r == 0 ? off : run_.pass_spans, "partition",
                           "ArtifactCache::dgraph", [&] {
      dg_ = cache.dgraph(g_, kMachines, popts, {.enabled = false},
                         kClusterThreads);
    });
    if (r == 0) continue;  // warm-up
    run_.close_pass("setup");
    stats = cache.stats();
    setup.push_back(t);
    assign.push_back(stats.partition_seconds);
    build.push_back(stats.build_seconds);
  }

  for (const auto kind :
       {engine::EngineKind::kAsync, engine::EngineKind::kLazyVertex}) {
    for (const bool pr : {true, false}) {
      for (const bool killed : {false, true}) {
        cells_.push_back({kind, pr, killed,
                          std::string(engine::to_string(kind)) + "/" +
                              (pr ? "pagerank" : "sssp") +
                              (killed ? "/killed" : "")});
      }
    }
  }
  run_pass(kUntraced, false);  // warm-up, untimed

  // Each figure of a cell is the median of its repeats.
  measure(run_, run_.args.trace ? 2 : 1,
          [&](int m) { run_pass(static_cast<Mode>(m), true); });

  if (!run_.args.trace) {
    double solve = 0, sim = 0;
    for (const Cell& c : cells_) {
      note_cell(res, c.name, c.metrics.sim_seconds(),
                median(c.host[kUntraced]), median(c.cpu));
      solve += median(c.cpu);
      sim += c.metrics.sim_seconds();
      res.jobs.push_back(c.metrics.sim_seconds());
    }
    res.e2e["setup_s"] += median(setup);
    res.e2e["solve_s"] += solve;
    res.e2e["sim_s"] += sim;
    return;
  }

  auto& L = res.layer;
  L["partition.assign_s"] += median(assign);
  L["partition.build_s"] += median(build);
  L["_lambda_sum"] += dg_->replication_factor();
  L["_lambda_n"] += 1;
  L["partition.cache_hits"] += static_cast<double>(stats.hits());
  L["partition.cache_misses"] += static_cast<double>(stats.misses());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const Cell& c = cells_[i];
    const double t = median(c.host[kTraced]);
    L["_traced_s"] += t;
    L["_untraced_s"] += median(c.host[kUntraced]);
    add_sim_counters(res, c.metrics);
    add_engine_counters(res, c.metrics, c.supersteps);
    add_phase_seconds(res, c.report);
    if (!c.killed) {
      L[c.kind == engine::EngineKind::kAsync ? "engine.async_s"
                                             : "engine.lazy_vertex_s"] += t;
      continue;
    }
    const Cell& twin = cells_[i - 1];
    L["recovery.kills"] += static_cast<double>(c.metrics.recoveries);
    L["recovery.guard_mb"] += mb(c.metrics.guard_bytes);
    L["recovery.rebuild_mb"] += mb(c.metrics.recovery_bytes);
    L["recovery.host_s"] += t - median(twin.host[kTraced]);
    L["recovery.sim_s"] +=
        c.metrics.sim_seconds() - twin.metrics.sim_seconds();
  }
}

void AsyncRecovery::run_pass(Mode mode, bool record) {
  std::vector<algos::PageRankDelta::VData> pr_twin;
  std::vector<algos::SSSP::VData> sssp_twin;
  const vid_t source = max_out_degree_vertex(g_);
  for (Cell& c : cells_) {
    if (c.pagerank) {
      run_cell(c, mode, record, algos::PageRankDelta{.tol = kPrTol}, pr_twin);
    } else {
      run_cell(c, mode, record, algos::SSSP{.source = source}, sssp_twin);
    }
  }
  if (mode == kTraced && record) run_.close_pass("solve");
}

// Runs one cell; a failure-free cell leaves its state in `twin`, and the
// killed cell after it must reproduce that state bit for bit.
template <class P, class Data>
void AsyncRecovery::run_cell(Cell& c, Mode mode, bool record, const P& prog,
                             Data& twin) {
  sim::Cluster cluster(
      {.machines = kMachines,
       .threads = kClusterThreads,
       .failures = c.killed ? sim::FailurePlan::parse(kill_plan_)
                            : sim::FailurePlan{}});
  sim::Tracer tracer;
  const engine::RunConfig cfg{.kind = c.kind,
                              .tracer = mode == kTraced ? &tracer : nullptr};
  Spans off;
  engine::RunResult<P> r;
  double cpu = 0;
  const double t = timed(
      mode == kTraced ? run_.pass_spans : off, "engine", "run/" + c.name,
      [&] { r = engine::run(cfg, *dg_, prog, cluster); }, &cpu);
  if (!record) {
    if (!c.killed) twin = std::move(r.data);
    return;
  }
  c.host[mode].push_back(t);
  if (mode == kUntraced) c.cpu.push_back(cpu);
  const bool same = !c.have_metrics ||
                    (r.metrics.sim_seconds() == c.metrics.sim_seconds() &&
                     r.metrics.network_bytes == c.metrics.network_bytes &&
                     r.supersteps == c.supersteps);
  bool ok = r.converged && same;
  if (c.killed) {
    ok = ok && r.metrics.recoveries > 0 && same_bits(r.data, twin);
  } else {
    twin = std::move(r.data);
  }
  run_.result.check(ok, c.name);
  if (!c.have_metrics) {
    c.metrics = r.metrics;
    c.supersteps = r.supersteps;
    c.have_metrics = true;
  }
  if (mode == kTraced && c.report.phases.empty()) {
    c.report = sim::build_perf_report(tracer, r.metrics, t);
  }
}

}  // namespace

void run_async_recovery(Run& run) { AsyncRecovery(run).go(); }

}  // namespace lazybench
