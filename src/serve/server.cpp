#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>
#include <utility>

#include "serve/verify.hpp"
#include "util/stats.hpp"

namespace lazygraph::serve {

namespace {

double field_percentile(const std::vector<QueryRecord>& records, double p,
                        double QueryRecord::*field) {
  std::vector<double> v;
  v.reserve(records.size());
  for (const auto& r : records) v.push_back(r.*field);
  return percentile(std::move(v), p);
}

void accumulate(sim::SimMetrics& a, const sim::SimMetrics& b) {
  a.global_syncs += b.global_syncs;
  a.network_messages += b.network_messages;
  a.network_bytes += b.network_bytes;
  a.supersteps += b.supersteps;
  a.local_subiterations += b.local_subiterations;
  a.applies += b.applies;
  a.edge_traversals += b.edge_traversals;
  a.a2a_exchanges += b.a2a_exchanges;
  a.m2m_exchanges += b.m2m_exchanges;
  a.vertex_coherency_events += b.vertex_coherency_events;
  a.sweep_scanned += b.sweep_scanned;
  a.sweep_pull_rounds += b.sweep_pull_rounds;
  a.sweep_edges_pushed += b.sweep_edges_pushed;
  a.sweep_edges_pulled += b.sweep_edges_pulled;
  a.sweep_staging_avoided_bytes += b.sweep_staging_avoided_bytes;
  a.recoveries += b.recoveries;
  a.guard_bytes += b.guard_bytes;
  a.recovery_bytes += b.recovery_bytes;
  a.compute_seconds += b.compute_seconds;
  a.comm_seconds += b.comm_seconds;
  a.barrier_seconds += b.barrier_seconds;
  a.overhead_seconds += b.overhead_seconds;
  a.setup_seconds += b.setup_seconds;
  a.setup_cache_hits += b.setup_cache_hits;
  a.setup_cache_misses += b.setup_cache_misses;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs one batch: builds the lane programs via `make`, executes, slices
/// per-query records, and (optionally) holds every lane against its solo
/// run. `slack` bounds fp divergence for the family/engine combination
/// (0 = bit-identity required).
template <engine::VertexProgram P, class MakeProg>
void run_family_batch(const partition::DistributedGraph& dg,
                      const ServeOptions& opts,
                      const std::vector<Query>& queries,
                      const std::vector<std::size_t>& batch, double dispatch,
                      std::uint64_t batch_id, double slack, MakeProg make,
                      ServeReport& rep, double* service, double* wall) {
  std::vector<P> progs;
  progs.reserve(batch.size());
  for (const std::size_t i : batch) progs.push_back(make(queries[i]));

  sim::Cluster cluster(
      {dg.num_machines(), {}, opts.cluster_threads});
  const auto t0 = std::chrono::steady_clock::now();
  const BatchOutcome<P> out = run_batched(dg, progs, opts.run, cluster);
  *wall = seconds_since(t0);
  *service = out.metrics.sim_seconds();
  accumulate(rep.metrics, out.metrics);

  for (std::size_t j = 0; j < batch.size(); ++j) {
    const Query& q = queries[batch[j]];
    QueryRecord r;
    r.query = q;
    r.batch_id = batch_id;
    r.lane = static_cast<std::uint32_t>(j);
    r.batch_width = static_cast<std::uint32_t>(batch.size());
    r.digest = lane_digest(out.lanes[j].data);
    r.supersteps = out.supersteps;
    r.live_points = out.lanes[j].live_points;
    r.queue_seconds = dispatch - q.arrival_seconds;
    r.service_seconds = *service;
    r.latency_seconds = dispatch + *service - q.arrival_seconds;
    r.service_wall_seconds = *wall;
    if (sim::Tracer* t = opts.run.tracer) {
      t->record_setup({.kind = sim::SpanKind::kServeQueue,
                       .duration_seconds = r.queue_seconds,
                       .items = batch_id});
      t->record_setup({.kind = sim::SpanKind::kServeQuery,
                       .duration_seconds = r.service_seconds,
                       .items = j});
    }
    if (opts.verify_solo) {
      sim::Cluster solo_cluster(
          {dg.num_machines(), {}, opts.cluster_threads});
      engine::RunConfig solo_run = opts.run;
      solo_run.tracer = nullptr;  // the solo shadow run is not part of the
                                  // served timeline
      const auto solo = run_solo(dg, progs[j], solo_run, solo_cluster);
      if (const auto err =
              verify_lane(out.lanes[j], solo, slack,
                          points_must_match(opts.run.kind))) {
        throw std::runtime_error(
            "serve: batched-vs-solo contract violated (query " +
            std::to_string(q.id) + ", " + std::string(to_string(q.family)) +
            "): " + *err);
      }
      ++rep.verified_lanes;
    }
    rep.records.push_back(r);
  }
}

}  // namespace

double ServeReport::queue_percentile(double p) const {
  return field_percentile(records, p, &QueryRecord::queue_seconds);
}
double ServeReport::service_percentile(double p) const {
  return field_percentile(records, p, &QueryRecord::service_seconds);
}
double ServeReport::latency_percentile(double p) const {
  return field_percentile(records, p, &QueryRecord::latency_seconds);
}

QueryServer::QueryServer(
    std::shared_ptr<const partition::DistributedGraph> dg, ServeOptions opts)
    : dg_(std::move(dg)), opts_(opts) {
  require(dg_ != nullptr, "QueryServer: null graph");
  opts_.policy.max_lanes = std::clamp<std::uint32_t>(
      opts_.policy.max_lanes, 1, static_cast<std::uint32_t>(kMaxBatchLanes));
  require(opts_.policy.max_wait_seconds >= 0.0,
          "QueryServer: negative max_wait");
}

ServeReport QueryServer::serve(std::vector<Query> queries) {
  std::sort(queries.begin(), queries.end(), [](const Query& a,
                                               const Query& b) {
    if (a.arrival_seconds != b.arrival_seconds) {
      return a.arrival_seconds < b.arrival_seconds;
    }
    return a.id < b.id;
  });

  ServeReport rep;
  rep.width_histogram.assign(opts_.policy.max_lanes + 1, 0);
  const std::size_t n = queries.size();
  std::vector<std::uint8_t> served(n, 0);
  double busy = 0.0;
  std::uint64_t batch_id = 0;
  std::size_t cursor = 0;

  while (cursor < n) {
    if (served[cursor]) {
      ++cursor;
      continue;
    }
    const std::size_t head = cursor;
    const QueryFamily fam = queries[head].family;
    const double ready = std::max(queries[head].arrival_seconds, busy);
    const double deadline =
        queries[head].arrival_seconds + opts_.policy.max_wait_seconds;

    // When does the batch fill? The arrival of the max_lanes-th unserved
    // same-family query, counting the head (infinity if the stream never
    // provides that many).
    double t_full = std::numeric_limits<double>::infinity();
    std::uint32_t count = 0;
    for (std::size_t i = head; i < n; ++i) {
      if (served[i] || queries[i].family != fam) continue;
      if (++count == opts_.policy.max_lanes) {
        t_full = queries[i].arrival_seconds;
        break;
      }
    }
    const double dispatch = std::max(ready, std::min(deadline, t_full));

    std::vector<std::size_t> batch;
    for (std::size_t i = head;
         i < n && batch.size() < opts_.policy.max_lanes; ++i) {
      if (served[i] || queries[i].family != fam) continue;
      if (queries[i].arrival_seconds > dispatch) break;  // arrival-sorted
      batch.push_back(i);
    }

    double service = 0.0, wall = 0.0;
    switch (fam) {
      case QueryFamily::kSssp:
        run_family_batch<algos::SSSP>(
            *dg_, opts_, queries, batch, dispatch, batch_id, 0.0,
            [](const Query& q) { return algos::SSSP{q.source}; }, rep,
            &service, &wall);
        break;
      case QueryFamily::kBfs:
        run_family_batch<algos::BFS>(
            *dg_, opts_, queries, batch, dispatch, batch_id, 0.0,
            [](const Query& q) { return algos::BFS{q.source}; }, rep,
            &service, &wall);
        break;
      case QueryFamily::kWidest:
        run_family_batch<algos::WidestPath>(
            *dg_, opts_, queries, batch, dispatch, batch_id, 0.0,
            [](const Query& q) { return algos::WidestPath{q.source}; }, rep,
            &service, &wall);
        break;
      case QueryFamily::kKcore:
        run_family_batch<algos::KCore>(
            *dg_, opts_, queries, batch, dispatch, batch_id, 0.0,
            [](const Query& q) { return algos::KCore{q.k}; }, rep, &service,
            &wall);
        break;
      case QueryFamily::kDiffusion: {
        // fp family: the lazy engines may split applies differently in the
        // batch than solo, reassociating the sums — same bounded slack the
        // fuzz oracle grants the plain program. Sync stays bit-exact.
        const double slack = opts_.run.kind == engine::EngineKind::kSync
                                 ? 0.0
                                 : 100.0 * opts_.diffusion_tol;
        const ServeOptions& o = opts_;
        run_family_batch<algos::LinearDiffusion>(
            *dg_, opts_, queries, batch, dispatch, batch_id, slack,
            [&o](const Query& q) {
              return algos::LinearDiffusion{.alpha = o.diffusion_alpha,
                                            .base_bias = 0.0,
                                            .seed = q.source,
                                            .seed_bias = 1.0,
                                            .tol = o.diffusion_tol};
            },
            rep, &service, &wall);
        break;
      }
    }

    busy = dispatch + service;
    rep.makespan_seconds = busy;
    rep.wall_seconds += wall;
    ++rep.batches;
    ++batch_id;
    ++rep.width_histogram[batch.size()];
    for (const std::size_t i : batch) {
      served[i] = 1;
      ++rep.tenant_queries[queries[i].tenant];
    }
  }
  return rep;
}

}  // namespace lazygraph::serve
