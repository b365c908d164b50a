// Replica-native fault injection & recovery (BLADYG-style blocking recovery
// at coherency points; see DESIGN §5h for the consistent-cut argument).
//
// A coherency point is a consistent cut: every replica of every boundary
// vertex holds the identical global view, and no protocol traffic is in
// flight. The Recoverer exploits that in two moves:
//
//   1. Guard. At every coherency point it diffs each machine's state against
//      the image taken at the previous point and charges the changed bytes
//      as delta-log traffic (kGuard spans). Boundary vdata is excluded from
//      the log — surviving mirrors already hold it, and its propagation was
//      already charged by the protocol's own coherency exchange.
//   2. Recover. When the failure plan kills machine m at point k, the dead
//      machine's masters are reconstructed from surviving mirrors (boundary
//      vdata) plus the bounded delta log kept since the last coherency point
//      (interior vdata, pending message/delta/payload slots, engine extras),
//      and its local CSR slab is rebuilt from the cached partition artifact
//      — pure local compute, no re-ingest. The cost is charged through
//      NetworkModel as one kRecovery span plus a RecoverySpan carrying the
//      same seconds, so the trace-tiling invariant extends to recovery.
//
// Because the guard image is brought up to date *before* the kill fires, the
// restored state is bit-identical to the pre-kill state by construction:
// a run with an injected kill+recover converges to exactly the same state as
// the failure-free run (the fuzz oracle asserts this across all four
// engines). The dead machine's memory is poisoned before the restore so any
// accidental dependence on dead state would surface immediately.
//
// The Recoverer runs serially on the driver's thread (never inside
// parallel_machines), so recovery is deterministic across cluster thread
// counts. With an empty failure plan every call is a no-op: failure-free
// runs keep no images, take no copies, and charge nothing.
#pragma once

#include <concepts>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/state.hpp"
#include "partition/dgraph.hpp"
#include "sim/cluster.hpp"
#include "sim/failure.hpp"

namespace lazygraph::recovery {

/// An engine with private per-machine state beyond PartState (the
/// lazy-vertex queues): the guard image carries it as one blob per machine,
/// and a rebuild restores it alongside the replica tables.
template <class E>
concept HasExtraState = requires(E& e, const E& ce, machine_t m,
                                 const std::vector<std::uint8_t>& blob) {
  { ce.save_extra_state(m) } -> std::same_as<std::vector<std::uint8_t>>;
  e.restore_extra_state(m, blob);
};

template <engine::VertexProgram P, class Engine>
class Recoverer {
 public:
  Recoverer(sim::Cluster& cluster, const partition::DistributedGraph& dg,
            Engine& engine)
      : cluster_(cluster), dg_(dg), engine_(engine) {
    static_assert(std::is_trivially_copyable_v<typename P::VData>,
                  "recovery diffs VData bytewise");
    static_assert(std::is_trivially_copyable_v<typename P::Msg>,
                  "recovery diffs Msg bytewise");
    static_assert(std::is_trivially_copyable_v<typename P::Scatter>,
                  "recovery diffs Scatter bytewise");
    // Events aimed beyond the machine count are ignored (the shrinker may
    // reduce `machines` under a fixed plan).
    for (const sim::FailureEvent& e : cluster.failures().events) {
      if (e.machine < dg.num_machines()) events_.push_back(e);
    }
  }

  bool enabled() const { return !events_.empty(); }

  /// Called by engine::run's driver at the end of every counted superstep,
  /// after the inspector:
  /// updates the guard image (charging delta-log traffic), then fires any
  /// kill scheduled for this superstep and rebuilds the machine.
  void on_coherency_point(std::uint64_t superstep,
                          std::vector<engine::PartState<P>>& states) {
    if (!enabled()) return;
    update_guard(superstep, states);
    for (const sim::FailureEvent& e : events_) {
      if (e.at_superstep == superstep) kill_and_recover(e, superstep, states);
    }
  }

 private:
  // Bytewise slot comparison; `flag` slots count as changed when the flag
  // flips or the flag is set and the payload bytes differ.
  template <class T>
  static bool slot_changed(std::uint8_t now_flag, const T& now,
                           std::uint8_t was_flag, const T& was) {
    if (now_flag != was_flag) return true;
    return now_flag && std::memcmp(&now, &was, sizeof(T)) != 0;
  }

  void update_guard(std::uint64_t superstep,
                    const std::vector<engine::PartState<P>>& states) {
    if (image_.empty()) {
      // First coherency point: prime the images without diffing. The state
      // up to here was produced by init + already-charged protocol traffic.
      image_ = states;
      extra_.resize(states.size());
      if constexpr (HasExtraState<Engine>) {
        for (machine_t m = 0; m < dg_.num_machines(); ++m) {
          extra_[m] = engine_.save_extra_state(m);
        }
      }
      cluster_.charge_guard(0, 0);
      return;
    }
    (void)superstep;
    // Guard and recovery traffic stay on the uncompressed fallback path
    // (flat wire_bytes<T>() = kUncompressedHeaderBytes + payload): the log
    // models state capture keyed by arbitrary changed slots, not the sorted
    // delta batches the engine::wire codec compresses.
    std::uint64_t bytes = 0, entries = 0;
    for (machine_t m = 0; m < dg_.num_machines(); ++m) {
      const partition::Part& part = dg_.part(m);
      const engine::PartState<P>& now = states[m];
      const engine::PartState<P>& was = image_[m];
      for (lvid_t v = 0; v < part.num_local(); ++v) {
        if (part.num_replicas(v) <= 1 &&
            std::memcmp(&now.vdata[v], &was.vdata[v],
                        sizeof(typename P::VData)) != 0) {
          bytes += engine::wire_bytes<typename P::VData>();
          ++entries;
        }
        if (slot_changed(now.has_msg[v], now.msg[v], was.has_msg[v],
                         was.msg[v])) {
          bytes += engine::wire_bytes<typename P::Msg>();
          ++entries;
        }
        if (slot_changed(now.has_delta[v], now.delta[v], was.has_delta[v],
                         was.delta[v])) {
          bytes += engine::wire_bytes<typename P::Msg>();
          ++entries;
        }
        if (slot_changed(now.has_payload[v], now.payload[v],
                         was.has_payload[v], was.payload[v])) {
          bytes += engine::wire_bytes<typename P::Scatter>();
          ++entries;
        }
      }
      if constexpr (HasExtraState<Engine>) {
        std::vector<std::uint8_t> blob = engine_.save_extra_state(m);
        if (blob != extra_[m]) {
          bytes += blob.size();
          ++entries;
        }
        extra_[m] = std::move(blob);
      }
      image_[m] = now;
    }
    cluster_.charge_guard(bytes, entries);
  }

  void kill_and_recover(const sim::FailureEvent& e, std::uint64_t superstep,
                        std::vector<engine::PartState<P>>& states) {
    const machine_t m = e.machine;
    const partition::Part& part = dg_.part(m);
    engine::PartState<P>& s = states[m];

    // The machine is dead: poison its state slab so any accidental read of
    // dead memory (instead of the rebuilt image) corrupts results loudly.
    s.poison();

    // Cost of the rebuild, computed from the guard image (== the state the
    // survivors + delta log can reproduce).
    sim::Cluster::RecoveryCharge charge;
    charge.superstep = superstep;
    charge.machine = m;
    charge.down_barriers = e.restart_barriers;
    charge.rebuild_edges = part.num_local_edges();
    const engine::PartState<P>& img = image_[m];
    for (lvid_t v = 0; v < part.num_local(); ++v) {
      if (part.num_replicas(v) > 1) {
        // Boundary vertex: a surviving mirror ships its copy.
        charge.mirror_bytes += engine::wire_bytes<typename P::VData>();
        for (const auto& [om, olv] : part.remote_replicas[v]) {
          if (om != m &&
              std::memcmp(&states[om].vdata[olv], &img.vdata[v],
                          sizeof(typename P::VData)) == 0) {
            ++charge.mirror_exact;
            break;
          }
        }
      } else {
        // Interior vertex: only the delta log has it.
        charge.log_bytes += engine::wire_bytes<typename P::VData>();
        ++charge.log_entries;
      }
      if (img.has_msg[v]) {
        charge.log_bytes += engine::wire_bytes<typename P::Msg>();
        ++charge.log_entries;
      }
      if (img.has_delta[v]) {
        charge.log_bytes += engine::wire_bytes<typename P::Msg>();
        ++charge.log_entries;
      }
      if (img.has_payload[v]) {
        charge.log_bytes += engine::wire_bytes<typename P::Scatter>();
        ++charge.log_entries;
      }
    }
    if (!extra_.empty() && !extra_[m].empty()) {
      charge.log_bytes += extra_[m].size();
      ++charge.log_entries;
    }

    // Rebuild: the local CSR slab comes from the cached partition artifact
    // (`dg_` — partition::ArtifactCache holds it; no re-ingest), the state
    // from mirrors + log, which is exactly the guard image.
    s = img;
    if constexpr (HasExtraState<Engine>) {
      engine_.restore_extra_state(m, extra_[m]);
    }
    cluster_.charge_recovery(charge);
  }

  sim::Cluster& cluster_;
  const partition::DistributedGraph& dg_;
  std::vector<sim::FailureEvent> events_;
  std::vector<engine::PartState<P>> image_;
  Engine& engine_;
  std::vector<std::vector<std::uint8_t>> extra_;
};

}  // namespace lazygraph::recovery
