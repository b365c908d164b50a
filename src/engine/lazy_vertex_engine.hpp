// LazyVertexAsync — Algorithm 2 of the paper (listed there as the engine to
// be implemented in future work on top of Async; we provide it as an
// extension). Queue-driven and barrier-free: each machine processes its
// active-vertex queue; a vertex runs plain local computation until it *needs*
// data coherency, at which point only that vertex's replicas exchange deltas
// (fine-grained, no global synchronization) and the merged global view
// becomes visible to neighbours as soon as possible.
//
// needDataCoherency(v) here: the replica has applied `staleness` local
// updates since its last coherency event; additionally, when every queue
// drains, all replicas with outstanding deltas are flushed (which either
// terminates the run or reactivates vertices).
//
// This is the coherency policy only; engine::run's driver owns the run loop.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <vector>

#include "engine/local_sweep.hpp"
#include "engine/policy.hpp"
#include "engine/state.hpp"
#include "sim/cluster.hpp"

namespace lazygraph::engine {

template <VertexProgram P>
class LazyVertexAsyncEngine {
 public:
  LazyVertexAsyncEngine(const RunConfig& cfg,
                        const partition::DistributedGraph& dg, const P& prog,
                        sim::Cluster& cluster,
                        std::vector<PartState<P>>& states)
      : cfg_(cfg),
        dg_(dg),
        prog_(prog),
        cluster_(cluster),
        states_(states),
        queues_(dg.num_machines()),
        in_queue_(dg.num_machines()),
        applies_since_(dg.num_machines()),
        flush_pending_(dg.num_machines()),
        work_(dg.num_machines()) {}

  /// Places the init messages and seeds the queues with every replica
  /// holding one; returns the slots scanned placing them.
  std::uint64_t init(const InitInjection* inj) {
    const std::uint64_t scanned = init_lazy_messages(prog_, dg_, states_, inj);
    for (machine_t m = 0; m < dg_.num_machines(); ++m) {
      const lvid_t n = dg_.part(m).num_local();
      in_queue_[m].assign(n, 0);
      applies_since_[m].assign(n, 0);
      for (lvid_t v = 0; v < n; ++v) {
        if (states_[m].has_msg[v]) enqueue(m, v);
      }
      // The queues are this engine's activation worklist; turn message
      // frontier tracking off so its (never-consumed) list cannot grow
      // unboundedly. The delta frontiers stay on — they drive the flush.
      states_[m].frontier.set_tracking(false);
    }
    return scanned;
  }

  /// One queue cycle. A counted cycle is not coherent: per-vertex coherency
  /// events merge deltas but leave the delivery pending in the replicas'
  /// message slots. When every queue drains, all outstanding deltas are
  /// flushed; a flush that delivers nothing ends the run with an uncounted
  /// detection cycle, the one point where every replica holds the identical
  /// global view. Whether the cycle counts is only known after the queue
  /// pass (stale queue entries can consume nothing), so it opens its
  /// superstep after the pass and before its charges.
  StepReport step(OpenSuperstep open) {
    const machine_t p = dg_.num_machines();
    std::fill(work_.begin(), work_.end(), 0);
    msgs_ = bytes_ = wire_ = 0;
    bool any = false;
    std::uint64_t active = 0;
    for (machine_t m = 0; m < p; ++m) active += queues_[m].size();

    for (machine_t m = 0; m < p; ++m) {
      // Snapshot the queue length: items pushed during this cycle are
      // handled next cycle (keeps cycles finite and deterministic).
      std::size_t budget = queues_[m].size();
      while (budget-- > 0) {
        const lvid_t v = queues_[m].front();
        queues_[m].pop_front();
        in_queue_[m][v] = 0;
        any |= step_vertex(m, v);
      }
    }

    if (!any) {
      if (!flush_all_deltas()) return {.coherent = true, .converged = true};
      // Drain cycle: the flush reactivated vertices. Report the delivered
      // activations, not the (empty) pre-flush queue length.
      active = 0;
      for (machine_t m = 0; m < p; ++m) active += queues_[m].size();
    }
    open();
    cluster_.charge_compute(sim::SpanKind::kLocalStage, work_);
    cluster_.charge_fine_grained(sim::SpanKind::kCoherencyExchange, bytes_,
                                 wire_, msgs_);
    return {.coherent = false, .snapshot = {.active_vertices = active}};
  }

  /// Serializes machine m's engine-private activation state for the guard
  /// image: queue contents (order matters — it is the processing schedule)
  /// followed by the raw staleness counters. in_queue_ is derivable (queue
  /// membership) and rebuilt on restore. A counted cycle is not a
  /// replica-coherent cut like the other engines' step ends, but the guard
  /// image plus this blob capture the full machine state, so a rebuild is
  /// still bit-exact.
  std::vector<std::uint8_t> save_extra_state(machine_t m) const {
    const std::uint64_t count = queues_[m].size();
    std::vector<std::uint8_t> blob(sizeof(count) + count * sizeof(lvid_t) +
                                   applies_since_[m].size() *
                                       sizeof(std::uint32_t));
    std::uint8_t* out = blob.data();
    std::memcpy(out, &count, sizeof(count));
    out += sizeof(count);
    for (const lvid_t v : queues_[m]) {
      std::memcpy(out, &v, sizeof(v));
      out += sizeof(v);
    }
    if (!applies_since_[m].empty()) {
      std::memcpy(out, applies_since_[m].data(),
                  applies_since_[m].size() * sizeof(std::uint32_t));
    }
    return blob;
  }

  void restore_extra_state(machine_t m,
                           const std::vector<std::uint8_t>& blob) {
    const std::uint8_t* in = blob.data();
    std::uint64_t count = 0;
    std::memcpy(&count, in, sizeof(count));
    in += sizeof(count);
    queues_[m].clear();
    std::fill(in_queue_[m].begin(), in_queue_[m].end(), 0);
    for (std::uint64_t i = 0; i < count; ++i) {
      lvid_t v;
      std::memcpy(&v, in, sizeof(v));
      in += sizeof(v);
      queues_[m].push_back(v);
      in_queue_[m][v] = 1;
    }
    if (!applies_since_[m].empty()) {
      std::memcpy(applies_since_[m].data(), in,
                  applies_since_[m].size() * sizeof(std::uint32_t));
    }
  }

 private:
  void enqueue(machine_t m, lvid_t v) {
    if (!in_queue_[m][v]) {
      in_queue_[m][v] = 1;
      queues_[m].push_back(v);
    }
  }

  /// Processes one queued replica; returns whether it did anything.
  bool step_vertex(machine_t m, lvid_t v) {
    const partition::Part& part = dg_.part(m);
    PartState<P>& s = states_[m];
    const bool spans = part.num_replicas(v) > 1;

    bool did = false;
    if (spans && applies_since_[m][v] >= cfg_.staleness) {
      did |= coherency_event(m, v);
    }
    if (!s.has_msg[v]) return did;

    // Stage 1 of Algorithm 2: local apply + scatter.
    const typename P::Msg acc = s.msg[v];
    s.has_msg[v] = 0;
    const VertexInfo info = vertex_info<P>(part, v);
    ++cluster_.metrics().applies;
    ++work_[m];
    if (spans) ++applies_since_[m][v];
    s.applied[v] = 1;
    const auto payload = prog_.apply(s.vdata[v], info, acc);
    if (payload) {
      for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
        const lvid_t u = part.targets[e];
        const typename P::Msg out =
            prog_.scatter(*payload, info, part.weights[e]);
        deposit_msg(prog_, s, u, out);
        if (!part.parallel_mode[e] && part.num_replicas(u) > 1) {
          deposit_delta(prog_, s, u, out);
        }
        enqueue(m, u);
        ++work_[m];
      }
    }
    return true;
  }

  /// Per-vertex data coherency: all replicas of the vertex exchange deltas
  /// (counted as fine-grained all-to-all traffic), fold in the others', and
  /// are reactivated. Returns whether any delta was outstanding.
  bool coherency_event(machine_t m, lvid_t v) {
    const partition::Part& part = dg_.part(m);

    bool have = false;
    typename P::Msg total{};
    std::uint32_t nd = 0;
    auto fold = [&](machine_t rm, lvid_t rv) {
      PartState<P>& rs = states_[rm];
      if (!rs.has_delta[rv]) return;
      total = have ? prog_.sum(total, rs.delta[rv]) : rs.delta[rv];
      have = true;
      ++nd;
    };
    bool self_done = false;
    for (const auto& [r, rl] : part.remote_replicas[v]) {
      if (!self_done && m < r) {
        fold(m, v);
        self_done = true;
      }
      fold(r, rl);
    }
    if (!self_done) fold(m, v);

    applies_since_[m][v] = 0;
    if (nd == 0) return false;

    auto deliver = [&](machine_t rm, lvid_t rv) {
      PartState<P>& rs = states_[rm];
      if (rs.has_delta[rv]) {
        if (nd > 1) {
          deposit_msg(prog_, rs, rv, without_own(prog_, total, rs.delta[rv]));
        }
        rs.has_delta[rv] = 0;
      } else {
        deposit_msg(prog_, rs, rv, total);
      }
      applies_since_[rm][rv] = 0;
      if (rs.has_msg[rv]) enqueue(rm, rv);
      ++work_[rm];
    };
    deliver(m, v);
    for (const auto& [r, rl] : part.remote_replicas[v]) deliver(r, rl);

    const std::uint32_t rnum = part.num_replicas(v);
    const std::uint64_t cnt = static_cast<std::uint64_t>(nd) * (rnum - 1);
    msgs_ += cnt;
    bytes_ += cnt * wire_bytes<typename P::Msg>();
    // Per-vertex coherency events ship one record at a time — charged as
    // single-record wire frames (no batch to delta-compress).
    wire_ += cnt * wire::single_record_bytes(part.gids[v],
                                             sizeof(typename P::Msg));
    ++cluster_.metrics().vertex_coherency_events;
    return true;
  }

  /// Flushes every vertex with an outstanding delta (master-driven so each
  /// vertex is visited once), found through the delta frontiers instead of
  /// scanning every replica. Unlike the historical full scan, masters with
  /// no outstanding delta anywhere are not visited, so their staleness
  /// counters are not reset at a flush — a deterministic schedule change
  /// with the same termination condition (flushes deliver exactly the
  /// outstanding deltas either way). Returns whether anything was delivered.
  bool flush_all_deltas() {
    // Every flagged delta is cleared by its coherency event below.
    route_flagged_to_masters<true>(dg_, states_, cluster_, flush_pending_,
                                   /*sort_on_pool=*/false);
    bool delivered = false;
    for (machine_t m = 0; m < dg_.num_machines(); ++m) {
      const partition::Part& part = dg_.part(m);
      for (const lvid_t v : flush_pending_[m]) {
        if (part.num_replicas(v) <= 1) continue;
        delivered |= coherency_event(m, v);
      }
    }
    return delivered;
  }

  const RunConfig& cfg_;
  const partition::DistributedGraph& dg_;
  const P& prog_;
  sim::Cluster& cluster_;
  std::vector<PartState<P>>& states_;
  std::vector<std::deque<lvid_t>> queues_;
  std::vector<std::vector<std::uint8_t>> in_queue_;
  std::vector<std::vector<std::uint32_t>> applies_since_;
  std::vector<std::vector<lvid_t>> flush_pending_;
  std::vector<std::uint64_t> work_;
  std::uint64_t msgs_ = 0, bytes_ = 0, wire_ = 0;
};

}  // namespace lazygraph::engine
