// serve-zipf, the second part of matrix-serve: the query server under an
// open-loop Zipf stream. One webgoogle-like view on 8 machines with
// lazy-block; 1,024 queries from 4 tenants over sssp/bfs/widest/diffusion,
// batched up to 16 lanes. The arrival rate sits below the server's virtual
// capacity so the backlog stays bounded. This is the only part that drives
// the engine through lane-strided batched state and sparse source
// frontiers.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "bench.hpp"

namespace lazybench {

namespace {

constexpr machine_t kMachines = 8;
constexpr double kScale = 0.03;
constexpr std::uint32_t kQueries = 1024;
constexpr double kRateQps = 12.0;
constexpr double kDiffusionAlpha = 0.5;
constexpr double kDiffusionTol = 1e-7;
// The query stream is a fixed input, like the graph: with a stream drawn
// from --seed, sim_s and the latencies moved 6% between seeds.
constexpr std::uint64_t kTrafficSeed = 2018;

serve::ServeOptions serve_options(sim::Tracer* tracer,
                                  std::size_t threads = kClusterThreads) {
  serve::ServeOptions o;
  o.run.kind = engine::EngineKind::kLazyBlock;
  o.run.tracer = tracer;
  o.policy.max_lanes = 16;
  o.cluster_threads = threads;
  o.diffusion_alpha = kDiffusionAlpha;
  o.diffusion_tol = kDiffusionTol;
  return o;
}

// Digest of the reference state of one source query, in the layout
// serve::lane_digest folds.
std::uint64_t reference_digest(const Graph& g, const serve::Query& q) {
  switch (q.family) {
    case serve::QueryFamily::kSssp: {
      const auto ref = reference::sssp(g, q.source);
      std::vector<algos::SSSP::VData> d(ref.size());
      for (std::size_t v = 0; v < ref.size(); ++v) d[v].dist = ref[v];
      return serve::lane_digest(d);
    }
    case serve::QueryFamily::kBfs: {
      const auto ref = reference::bfs(g, q.source);
      std::vector<algos::BFS::VData> d(ref.size());
      for (std::size_t v = 0; v < ref.size(); ++v) d[v].depth = ref[v];
      return serve::lane_digest(d);
    }
    case serve::QueryFamily::kWidest: {
      const auto ref = reference::widest_path(g, q.source);
      std::vector<algos::WidestPath::VData> d(ref.size());
      for (std::size_t v = 0; v < ref.size(); ++v) d[v].capacity = ref[v];
      return serve::lane_digest(d);
    }
    default:
      throw std::logic_error("reference_digest: not a digest family");
  }
}

class ServeZipf {
 public:
  explicit ServeZipf(Run& run) : run_(run) {}
  void go();

 private:
  void check_report(const serve::ServeReport& rep);
  void check_diffusion(const serve::ServeReport& rep);

  Run& run_;
  Graph g_;
  std::shared_ptr<const partition::DistributedGraph> dg_;
  std::map<std::pair<int, vid_t>, std::uint64_t> ref_digest_;
  // The first run's digest and latency bits, by query id.
  std::vector<std::uint64_t> first_digests_;
  std::vector<std::uint64_t> first_latency_;
};

void ServeZipf::go() {
  Result& res = run_.result;
  const auto& spec = datasets::spec_by_name("webgoogle-like");
  g_ = datasets::make(spec, kScale);
  run_.note("hash.webgoogle-like") = std::to_string(g_.content_hash());
  res.layer["graph.edges"] += static_cast<double>(g_.num_edges());
  const std::vector<serve::Query> queries = serve::make_traffic(
      {.seed = kTrafficSeed,
       .num_queries = kQueries,
       .rate_qps = kRateQps,
       .zipf_skew = 1.0,
       .tenants = 4},
      g_.num_vertices());
  const partition::PartitionOptions popts{
      .kind = partition::CutKind::kCoordinated,
      .seed = derived_seed(run_.args.seed),
      .threads = kClusterThreads};

  // Set-up: each repeat partitions and builds through an empty cache; the
  // view is small, so many repeats steady the median.
  std::vector<double> setup, assign, build;
  partition::ArtifactStats stats;
  for (int r = 0; r < 16; ++r) {
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

  serve::QueryServer server(dg_, serve_options(nullptr));
  server.serve(queries);  // warm-up, untimed

  // Modes: 0 untraced; traced runs add 1 traced and 2 on a 1-thread
  // cluster, whose virtual-clock results must equal the 4-thread ones.
  // Each figure is the median of the passes.
  std::vector<double> host[3], engine_host[3], cpu;
  serve::ServeReport first;
  sim::Tracer tracer;
  sim::PerfReport perf;
  measure(run_, run_.args.trace ? 3 : 1, [&](int m) {
    const bool traced = m == 1;
    tracer.clear();
    serve::QueryServer s(dg_, serve_options(traced ? &tracer : nullptr,
                                            m == 2 ? 1 : kClusterThreads));
    Spans off;
    serve::ServeReport rep;
    double c = 0;
    const double t = timed(traced ? run_.pass_spans : off, "serve",
                           "QueryServer::serve",
                           [&] { rep = s.serve(queries); }, &c);
    if (traced) {
      run_.pass_spans.attach_to_last("engine", "batched engine runs",
                                     rep.wall_seconds);
      run_.close_pass("solve");
    }
    host[m].push_back(t);
    engine_host[m].push_back(rep.wall_seconds);
    if (m == 0) cpu.push_back(c);
    check_report(rep);
    if (traced && perf.phases.empty()) {
      perf = sim::build_perf_report(tracer, rep.metrics, rep.wall_seconds);
    }
    if (first.records.empty()) first = std::move(rep);
  });
  check_diffusion(first);
  run_.note("queries") = std::to_string(first.records.size());
  run_.note("batches") = std::to_string(first.batches);
  res.manifest["lat_samples"] = std::to_string(first.records.size());
  res.manifest["lat_tail_percentile"] =
      std::to_string(tail_percentile(first.records.size()));

  if (!run_.args.trace) {
    // p99 must leave at least ten samples beyond it.
    if (tail_percentile(first.records.size()) < 99.0) {
      throw std::logic_error("serve-zipf: too few queries for a p99");
    }
    const double solve = median(cpu);
    res.e2e["setup_s"] += median(setup);
    res.e2e["solve_s"] += solve;
    res.e2e["sim_s"] += first.metrics.sim_seconds();
    res.e2e["qps_host"] = double(first.records.size()) / solve;
    res.e2e["lat_p50_vs"] = first.latency_percentile(50);
    res.e2e["lat_p99_vs"] = first.latency_percentile(99);
    return;
  }

  auto& L = res.layer;
  L["partition.assign_s"] += median(assign);
  L["partition.build_s"] += median(build);
  L["_lambda_sum"] += dg_->replication_factor();
  L["_lambda_n"] += 1;
  L["partition.cache_hits"] += static_cast<double>(stats.hits());
  L["partition.cache_misses"] += static_cast<double>(stats.misses());
  L["engine.lazy_block_s"] += median(engine_host[1]);
  L["_lazy_block_4t_s"] += median(engine_host[0]);
  L["_lazy_block_1t_s"] += median(engine_host[2]);
  std::map<std::uint64_t, double> batch_wall;
  std::map<std::uint64_t, std::uint64_t> batch_steps;
  for (const auto& r : first.records) {
    batch_wall[r.batch_id] = r.service_wall_seconds;
    batch_steps[r.batch_id] = r.supersteps;
  }
  std::vector<double> walls;
  std::uint64_t steps = 0;
  for (const auto& [id, w] : batch_wall) walls.push_back(w * 1e3);
  for (const auto& [id, s] : batch_steps) steps += s;
  add_sim_counters(res, first.metrics);
  add_engine_counters(res, first.metrics, steps);
  add_phase_seconds(res, perf);
  std::vector<double> self;
  for (std::size_t i = 0; i < host[1].size(); ++i) {
    self.push_back(host[1][i] - engine_host[1][i]);
  }
  L["serve.self_s"] = median(self);
  L["serve.batches"] = static_cast<double>(first.batches);
  L["serve.lanes_per_batch"] =
      ratio(double(first.records.size()), double(first.batches));
  L["serve.batch_p50_ms"] = percentile(walls, 50);
  L["serve.batch_p90_ms"] = percentile(walls, 90);
  L["serve.queue_p99_vs"] = first.queue_percentile(99);
  L["serve.qps_vs"] = first.queries_per_second();
  L["_traced_s"] += median(host[1]);
  L["_untraced_s"] += median(host[0]);
}

// Every lane of the traversal families must equal the reference exactly;
// every rerun must serve every query with the digest and virtual latency
// of the first run.
void ServeZipf::check_report(const serve::ServeReport& rep) {
  const bool first = first_digests_.empty();
  if (first) {
    first_digests_.assign(rep.records.size(), 0);
    first_latency_.assign(rep.records.size(), 0);
  }
  Result& res = run_.result;
  res.check(rep.records.size() == kQueries, "serve: every query served");
  for (const auto& r : rep.records) {
    const auto id = static_cast<std::size_t>(r.query.id);
    if (id >= first_digests_.size()) {
      res.check(false, "serve: query id out of range");
      continue;
    }
    if (first) {
      first_digests_[id] = r.digest;
      first_latency_[id] = serve::bits_of(r.latency_seconds);
    }
    bool ok = r.digest == first_digests_[id] &&
              serve::bits_of(r.latency_seconds) == first_latency_[id];
    if (r.query.family != serve::QueryFamily::kDiffusion) {
      const std::pair<int, vid_t> key{int(r.query.family), r.query.source};
      auto it = ref_digest_.find(key);
      if (it == ref_digest_.end()) {
        it = ref_digest_.emplace(key, reference_digest(g_, r.query)).first;
      }
      ok = ok && r.digest == it->second;
    }
    res.check(ok, "serve: query " + std::to_string(r.query.id) + " (" +
                      serve::to_string(r.query.family) + ")");
  }
}

// Diffusion lanes are fp sums the lazy engine may reassociate, so they are
// held to the reference within the oracle's bound instead of by digest:
// each diffusion batch is re-run as served to recover its lane states,
// whose digests must match what the server reported.
void ServeZipf::check_diffusion(const serve::ServeReport& rep) {
  std::map<std::uint64_t, std::vector<const serve::QueryRecord*>> batches;
  for (const auto& r : rep.records) {
    if (r.query.family == serve::QueryFamily::kDiffusion) {
      batches[r.batch_id].push_back(&r);
    }
  }
  std::map<vid_t, std::vector<double>> refs;
  const serve::ServeOptions o = serve_options(nullptr);
  const double bound = 300.0 * kDiffusionTol / (1.0 - kDiffusionAlpha);
  for (auto& [id, lanes] : batches) {
    std::sort(lanes.begin(), lanes.end(),
              [](auto* a, auto* b) { return a->lane < b->lane; });
    std::vector<algos::LinearDiffusion> progs;
    for (const auto* r : lanes) {
      progs.push_back({.alpha = kDiffusionAlpha,
                       .base_bias = 0.0,
                       .seed = r->query.source,
                       .seed_bias = 1.0,
                       .tol = kDiffusionTol});
    }
    sim::Cluster cluster({.machines = kMachines, .threads = kClusterThreads});
    const auto out = serve::run_batched(*dg_, progs, o.run, cluster);
    for (std::size_t j = 0; j < lanes.size(); ++j) {
      const vid_t seed = lanes[j]->query.source;
      auto& ref = refs[seed];
      if (ref.empty()) {
        std::vector<double> bias(g_.num_vertices(), 0.0);
        bias[seed] = 1.0;
        ref = reference::linear_diffusion(g_, bias, kDiffusionAlpha, 1e-13,
                                          50'000);
      }
      const auto& data = out.lanes[j].data;
      bool ok = serve::lane_digest(data) == lanes[j]->digest &&
                data.size() == ref.size();
      for (std::size_t v = 0; ok && v < ref.size(); ++v) {
        ok = std::abs(data[v].value - ref[v]) <= bound;
      }
      run_.result.check(ok, "serve: diffusion query " +
                                std::to_string(lanes[j]->query.id));
    }
  }
}

}  // namespace

void run_serve_zipf(Run& run) { ServeZipf(run).go(); }

}  // namespace lazybench
