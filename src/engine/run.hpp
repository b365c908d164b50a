// The engine front door: one RunConfig (engine/policy.hpp) carrying the
// engine kind, the per-engine knobs, and an optional Tracer, dispatched
// through engine::run(). The only place that constructs an engine: the CLI,
// the plan executor, the query server and the differential oracle all come
// through here. Behind it, one driver runs every engine's superstep loop;
// the engines themselves are only their coherency policies.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "engine/async_engine.hpp"
#include "engine/lazy_block_engine.hpp"
#include "engine/lazy_vertex_engine.hpp"
#include "engine/policy.hpp"
#include "engine/state.hpp"
#include "engine/sync_engine.hpp"
#include "recovery/recovery.hpp"

namespace lazygraph::engine {

namespace detail {

/// The run loop every engine shares: builds the replica states, lets
/// `Engine` place its init messages, then steps it until it converges or
/// the step bound is hit. A counted step (one that opened its superstep)
/// ends in a fixed order: tracer snapshot, the inspector when the policy
/// reports coherent replicas, the recovery guard, then the stop when
/// converged. An uncounted step (lazy-vertex's terminal detection cycle)
/// only fires the inspector.
template <template <class> class Engine, VertexProgram P>
RunResult<P> drive(const RunConfig& cfg, const InitInjection* inj,
                   const partition::DistributedGraph& dg, const P& prog,
                   sim::Cluster& cluster,
                   const CoherencyInspector<P>& inspector) {
  std::vector<PartState<P>> states = make_states(dg, prog, inj);
  Engine<P> engine(cfg, dg, prog, cluster, states);
  cluster.metrics().sweep_scanned += engine.init(inj);
  recovery::Recoverer<P, Engine<P>> recoverer(cluster, dg, engine);

  RunResult<P> result;
  bool opened = false;
  const auto open = [&] {
    ++cluster.metrics().supersteps;
    ++result.supersteps;
    opened = true;
  };
  for (std::uint64_t i = 0; i < cfg.max_supersteps; ++i) {
    opened = false;
    StepReport report = engine.step(open);
    if (sim::Tracer* t = cluster.tracer(); t && opened) {
      report.snapshot.superstep = result.supersteps;
      t->record_superstep(report.snapshot);
    }
    if (report.coherent && inspector) inspector(result.supersteps, states);
    // The consistent cut for fault injection (DESIGN §5h).
    if (opened) recoverer.on_coherency_point(result.supersteps, states);
    if (report.converged) {
      result.converged = true;
      break;
    }
  }
  finalize_result(result, cluster, dg, states);
  return result;
}

}  // namespace detail

/// Runs `prog` over `dg` on `cluster` with the engine cfg.kind selects.
/// All engines return the same RunResult field set; when cfg.tracer is set
/// it is attached for the duration of the run (restoring any tracer the
/// cluster already had) and handed back via RunResult::trace. A non-empty
/// `inspector` is called at every step end where the engine's policy
/// reports coherent replicas (each engine's step() documents its points).
/// It is an argument rather than a RunConfig field because its type depends
/// on P.
template <VertexProgram P>
RunResult<P> run(const RunConfig& cfg, const partition::DistributedGraph& dg,
                 const P& prog, sim::Cluster& cluster,
                 std::type_identity_t<CoherencyInspector<P>> inspector = {}) {
  require(cluster.num_machines() == dg.num_machines(),
          "engine::run: cluster/graph machine count mismatch");
  sim::Tracer* const previous = cluster.tracer();
  if (cfg.tracer) {
    cluster.set_tracer(cfg.tracer);
    cfg.tracer->set_run_info(to_string(cfg.kind));
  }

  // Lower the global-id injection into per-machine state. The frontier is
  // translated by scanning each machine's replicas in ascending lvid order
  // against a membership mask, so the per-machine lists reproduce the full
  // init scan's visit order restricted to the frontier (the bit-identity
  // requirement of for_each_init_vertex).
  InitInjection inj;
  inj.vdata = cfg.initial_state;
  if (cfg.initial_frontier) {
    inj.has_frontier = true;
    inj.frontier.resize(dg.num_machines());
    std::vector<std::uint8_t> member(dg.num_global_vertices(), 0);
    for (const vid_t g : *cfg.initial_frontier) member[g] = 1;
    for (machine_t m = 0; m < dg.num_machines(); ++m) {
      const partition::Part& part = dg.part(m);
      for (lvid_t v = 0; v < part.num_local(); ++v) {
        if (member[part.gids[v]]) inj.frontier[m].push_back(v);
      }
    }
  }
  const InitInjection* injp =
      (inj.has_frontier || inj.vdata) ? &inj : nullptr;

  RunResult<P> result;
  switch (cfg.kind) {
    case EngineKind::kSync:
      result = detail::drive<SyncEngine>(cfg, injp, dg, prog, cluster,
                                         inspector);
      break;
    case EngineKind::kAsync:
      result = detail::drive<AsyncEngine>(cfg, injp, dg, prog, cluster,
                                          inspector);
      break;
    case EngineKind::kLazyBlock:
      result = detail::drive<LazyBlockAsyncEngine>(cfg, injp, dg, prog,
                                                   cluster, inspector);
      break;
    case EngineKind::kLazyVertex:
      result = detail::drive<LazyVertexAsyncEngine>(cfg, injp, dg, prog,
                                                    cluster, inspector);
      break;
  }
  if (cfg.tracer) cluster.set_tracer(previous);
  return result;
}

}  // namespace lazygraph::engine
