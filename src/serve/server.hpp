// The long-lived, multi-tenant query server: an admission queue over a
// shared ArtifactCache-resident DistributedGraph, packing same-family
// queries into batched engine runs (src/serve/batched.hpp).
//
// The server runs on a deterministic virtual clock. Arrivals come from the
// (open-loop) query stream; service time is the batch engine run's
// *simulated* seconds — itself a pure function of the run — so queue /
// service / latency metrics and their percentiles are bit-reproducible
// across hosts, which is what lets BENCH_serve.json be committed and gated.
// Host wall-clock of each engine run is tracked separately.
//
// Admission (see DESIGN.md §5i): queries are served FIFO. The head query
// defines the batch's family; the batch dispatches at
//     max(ready, min(head.arrival + max_wait, t_full))
// where `ready` is the later of the head's arrival and the executor going
// idle, and t_full is when the max_lanes-th same-family query arrives
// (infinity if it never does). Every unserved same-family query that has
// arrived by the dispatch instant joins, oldest first, up to max_lanes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "serve/executor.hpp"
#include "serve/query.hpp"

namespace lazygraph::serve {

struct BatchPolicy {
  /// Lanes per batch; clamped to kMaxBatchLanes. 1 = no batching.
  std::uint32_t max_lanes = kMaxBatchLanes;
  /// How long (virtual seconds) the head query may wait for lane-mates
  /// before the batch dispatches anyway.
  double max_wait_seconds = 0.05;
};

struct ServeOptions {
  /// Engine knobs every batch runs with. The plan-layer injection fields
  /// (initial_frontier, initial_state) must stay unset: initial_state is
  /// typed by the plain program, not by its batched lane wrapper.
  engine::RunConfig run = {};
  BatchPolicy policy = {};
  /// Worker threads of the per-batch sim::Cluster (0 = hardware).
  std::size_t cluster_threads = 1;
  /// Diffusion family parameters (per-query seeds personalize the bias).
  double diffusion_alpha = 0.5;
  double diffusion_tol = 1e-7;
  /// Self-check mode: re-run every lane solo and throw std::runtime_error
  /// on any batched-vs-solo divergence (state always; coherency-point
  /// counts where the engine guarantees them — serve/verify.hpp).
  bool verify_solo = false;
};

struct ServeReport {
  std::vector<QueryRecord> records;  // completion order
  std::uint64_t batches = 0;
  /// width_histogram[w] = batches that packed exactly w lanes.
  std::vector<std::uint64_t> width_histogram;
  /// Queries served per tenant.
  std::map<std::uint32_t, std::uint64_t> tenant_queries;
  double makespan_seconds = 0.0;  // virtual completion time of last batch
  double wall_seconds = 0.0;      // host seconds inside engine runs
  std::uint64_t verified_lanes = 0;  // lanes checked under verify_solo
  sim::SimMetrics metrics = {};      // summed over all batch runs

  /// Served throughput on the virtual clock.
  double queries_per_second() const {
    return makespan_seconds > 0.0
               ? static_cast<double>(records.size()) / makespan_seconds
               : 0.0;
  }
  // Percentiles (0..100) over per-query virtual-clock metrics.
  double queue_percentile(double p) const;
  double service_percentile(double p) const;
  double latency_percentile(double p) const;
};

class QueryServer {
 public:
  QueryServer(std::shared_ptr<const partition::DistributedGraph> dg,
              ServeOptions opts);

  /// Serves the whole stream to completion (queries need not be sorted;
  /// admission orders by arrival, ties by id). When a tracer is attached
  /// via opts.run.tracer, each query contributes one serve_queue and one
  /// serve_query setup span, and every batch's engine spans are recorded.
  ServeReport serve(std::vector<Query> queries);

  const partition::DistributedGraph& graph() const { return *dg_; }
  const ServeOptions& options() const { return opts_; }

 private:
  std::shared_ptr<const partition::DistributedGraph> dg_;
  ServeOptions opts_;
};

}  // namespace lazygraph::serve
