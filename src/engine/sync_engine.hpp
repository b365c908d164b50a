// PowerGraph's synchronous engine with eager replica coherency — the paper's
// main baseline (Issue I / Fig. 2a).
//
// Every superstep performs the full eager GAS protocol:
//   1. Gather:  each active mirror ships its partial accumulator to the
//               master                     (communication #1, global sync #1)
//   2. Apply:   the master applies the combined accumulator and immediately
//               replicates the new vertex data (plus the scatter payload) to
//               all mirrors                (communication #2, global sync #2)
//   3. Scatter: every replica pushes messages along its local out-edges
//                                          (global sync #3)
// i.e. two communications and three global synchronizations per superstep,
// exactly the redundancy Section 2.3 of the paper quantifies.
//
// The superstep is frontier-driven: pending masters are derived from the
// per-machine frontiers (sorted ascending, so every pass visits the same
// vertices in the same order as the historical whole-array scans), and the
// scatter pass runs over edge-balanced chunks with an ordered merge.
//
// This is the coherency policy only; engine::run's driver owns the run loop.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "engine/local_sweep.hpp"
#include "engine/policy.hpp"
#include "engine/state.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

template <VertexProgram P>
class SyncEngine {
 public:
  SyncEngine(const RunConfig& cfg, const partition::DistributedGraph& dg,
             const P& prog, sim::Cluster& cluster,
             std::vector<PartState<P>>& states)
      : cfg_(cfg),
        dg_(dg),
        prog_(prog),
        cluster_(cluster),
        states_(states),
        gather_msgs_(dg.num_machines()),
        bcast_msgs_(dg.num_machines()),
        bcast_payloads_(dg.num_machines()),
        work_(dg.num_machines()),
        applies_(dg.num_machines()),
        gather_work_(dg.num_machines()),
        pending_(dg.num_machines()),
        scatter_list_(dg.num_machines()),
        scatter_counters_(dg.num_machines()),
        gather_coders_(std::size_t{dg.num_machines()} * dg.num_machines()),
        bcast_coders_(std::size_t{dg.num_machines()} * dg.num_machines()) {
    require(dg.parallel_edge_copies() == 0,
            "SyncEngine: eager engines run on unsplit graphs "
            "(parallel-edges are a LazyGraph mechanism)");
  }

  /// Places the init messages; returns the slots scanned doing so.
  std::uint64_t init(const InitInjection* inj) {
    return init_eager_messages(prog_, dg_, states_, inj);
  }

  /// One superstep. Coherent at every end: the eager broadcast has just
  /// replicated every applied vertex to all its mirrors.
  StepReport step(OpenSuperstep open) {
    open();
    const machine_t p = dg_.num_machines();

    // --- Derive the pending-master worklists from the frontiers. All flags
    // are consumed by gather+apply before scatter re-arms the frontier. ---
    route_flagged_to_masters<false>(dg_, states_, cluster_, pending_,
                                    /*sort_on_pool=*/true);

    // --- Gather: PowerGraph recomputes the accumulator of every active
    // vertex over its full in-neighbourhood — each replica walks its local
    // in-edges and every mirror ships one accumulator to the master,
    // whether or not anything arrived locally. ---
    std::fill(gather_msgs_.begin(), gather_msgs_.end(), 0);
    for (auto& c : gather_coders_) c.reset();
    for (auto& w : gather_work_) w.store(0, std::memory_order_relaxed);
    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      PartState<P>& s = states_[m];
      for (const lvid_t v : pending_[m]) {
        gather_work_[m].fetch_add(part.local_in_degree[v],
                                  std::memory_order_relaxed);
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          PartState<P>& rs = states_[r];
          gather_work_[r].fetch_add(dg_.part(r).local_in_degree[rl],
                                    std::memory_order_relaxed);
          ++gather_msgs_[m];  // one accumulator per mirror, always
          gather_coders_[std::size_t{m} * p + r].add(part.gids[v],
                                                     sizeof(typename P::Msg));
          if (rs.has_msg[rl]) {
            // Raw deposit: the master flag raised here is consumed by the
            // apply pass below, before the next frontier derivation.
            deposit_msg_raw(prog_, s, v, rs.msg[rl]);
            rs.has_msg[rl] = 0;
          }
        }
      }
    });
    std::uint64_t total_gather = 0;
    for (machine_t m = 0; m < p; ++m) {
      total_gather += gather_msgs_[m];
      work_[m] = gather_work_[m].load(std::memory_order_relaxed);
    }
    std::uint64_t gather_wire = 0;
    for (const auto& c : gather_coders_) gather_wire += c.total_bytes();
    cluster_.charge_compute(sim::SpanKind::kEagerGather, work_);
    cluster_.charge_exchange(sim::SpanKind::kEagerGather,
                             sim::CommMode::kAllToAll,
                             total_gather * wire_bytes<typename P::Msg>(),
                             gather_wire, total_gather);
    cluster_.charge_barrier();  // sync #1

    // --- Apply at masters + eager broadcast of new data to mirrors. ---
    std::fill(bcast_msgs_.begin(), bcast_msgs_.end(), 0);
    std::fill(bcast_payloads_.begin(), bcast_payloads_.end(), 0);
    std::fill(applies_.begin(), applies_.end(), 0);
    for (auto& c : bcast_coders_) c.reset();
    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      PartState<P>& s = states_[m];
      for (const lvid_t v : pending_[m]) {
        if (!s.has_msg[v]) continue;
        const typename P::Msg acc = s.msg[v];
        s.has_msg[v] = 0;
        ++applies_[m];
        const VertexInfo info = vertex_info<P>(part, v);
        s.applied[v] = 1;
        const auto payload = prog_.apply(s.vdata[v], info, acc);
        if (payload) {
          s.payload[v] = *payload;
          s.has_payload[v] = 1;
        }
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          PartState<P>& rs = states_[r];
          rs.vdata[rl] = s.vdata[v];
          ++bcast_msgs_[m];
          bcast_coders_[std::size_t{m} * p + r].add(
              part.gids[v], sizeof(typename P::VData) +
                                (payload ? sizeof(typename P::Scatter) : 0));
          if (payload) {
            rs.payload[rl] = *payload;
            rs.has_payload[rl] = 1;
            ++bcast_payloads_[m];
          }
        }
      }
    });
    std::uint64_t total_bcast = 0, total_payloads = 0, total_applies = 0;
    for (machine_t m = 0; m < p; ++m) {
      total_bcast += bcast_msgs_[m];
      total_payloads += bcast_payloads_[m];
      total_applies += applies_[m];
    }
    cluster_.metrics().applies += total_applies;
    std::uint64_t bcast_wire = 0;
    for (const auto& c : bcast_coders_) {
      bcast_wire += c.total_bytes_with_flag_bitmap();
    }
    cluster_.charge_exchange(
        sim::SpanKind::kEagerBroadcast, sim::CommMode::kAllToAll,
        total_bcast * wire_bytes<typename P::VData>() +
            total_payloads * sizeof(typename P::Scatter),
        bcast_wire, total_bcast);
    cluster_.charge_barrier();  // sync #2

    // --- Scatter on every replica along local out-edges, worklist-driven:
    // a replica carries a payload iff its master was pending and applied
    // one, so the lists below cover every raised has_payload flag. ---
    for (auto& l : scatter_list_) l.clear();
    for (machine_t m = 0; m < p; ++m) {
      const partition::Part& part = dg_.part(m);
      for (const lvid_t v : pending_[m]) {
        if (states_[m].has_payload[v]) scatter_list_[m].push_back(v);
        for (const auto& [r, rl] : part.remote_replicas[v]) {
          if (states_[r].has_payload[rl]) scatter_list_[r].push_back(rl);
        }
      }
    }
    cluster_.parallel_machines([&](machine_t m) {
      const partition::Part& part = dg_.part(m);
      PartState<P>& s = states_[m];
      auto& list = scatter_list_[m];
      std::sort(list.begin(), list.end());  // ascending = old scan order
      // The eager broadcast already parked every payload in the slab, so
      // the pull fold reads straight from the payload slots. Either way the
      // folded bits are identical (DESIGN §5k).
      SweepCounters c;
      if (sweep_pulls(part, list, cfg_.sweep)) {
        c = pull_deposit_pass<false>(prog_, part, s);
        for (const lvid_t v : list) s.has_payload[v] = 0;
      } else {
        c = chunked_deposit_pass(
            prog_, part, s, list.size(),
            [&](std::size_t i) { return list[i]; },
            [&](std::size_t i, ChunkEmitter<typename P::Msg>& em,
                SweepCounters& cc) {
              const lvid_t v = list[i];
              s.has_payload[v] = 0;
              const VertexInfo info = vertex_info<P>(part, v);
              for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1];
                   ++e) {
                em.msg(part.targets[e],
                       prog_.scatter(s.payload[v], info, part.weights[e]));
                ++cc.work;
              }
            });
      }
      scatter_counters_[m] = c;
      work_[m] = applies_[m] + c.work;
    });
    int sweep_dir = -1;
    for (machine_t m = 0; m < p; ++m) {
      add_sweep_metrics(cluster_.metrics(), scatter_counters_[m]);
      if (scatter_list_[m].empty()) continue;  // no sweep ran: no vote
      sweep_dir = fold_vote(sweep_dir, sweep_vote(scatter_counters_[m]));
    }
    cluster_.charge_compute(sim::SpanKind::kEagerScatter, work_);
    cluster_.charge_barrier();  // sync #3

    // --- Global termination test: any message pending anywhere? ---
    std::uint64_t active = 0;
    for (machine_t m = 0; m < p; ++m) active += states_[m].count_msgs();
    return {.converged = active == 0,
            .snapshot = {.active_vertices = active, .sweep_dir = sweep_dir}};
  }

 private:
  const RunConfig& cfg_;
  const partition::DistributedGraph& dg_;
  const P& prog_;
  sim::Cluster& cluster_;
  std::vector<PartState<P>>& states_;
  // Per-superstep scratch, hoisted so steady state allocates nothing.
  std::vector<std::uint64_t> gather_msgs_, bcast_msgs_, bcast_payloads_,
      work_, applies_;
  // Gather-phase edge work lands on *other* machines (every replica of an
  // active vertex walks its local in-edges), so these are shared counters.
  std::vector<std::atomic<std::uint64_t>> gather_work_;
  // Per machine: master lvids with any active replica this superstep
  // (sorted ascending), and payload-carrying replicas to scatter.
  std::vector<std::vector<lvid_t>> pending_, scatter_list_;
  // Per-machine scatter-sweep outcome, folded into metrics serially after
  // the join (cluster metrics are not thread-safe).
  std::vector<SweepCounters> scatter_counters_;
  // Wire-codec size accounting, one stream per machine pair [dest*p+src]:
  // gather ships mirror accumulators to masters, broadcast ships new master
  // vdata (with the scatter payload piggybacked behind a presence bitmap) to
  // mirrors. pending_[m] is ascending and lvids are dense in gid order, so
  // each stream sees strictly ascending gids.
  std::vector<wire::DeltaSizeCoder> gather_coders_, bcast_coders_;
};

}  // namespace lazygraph::engine
