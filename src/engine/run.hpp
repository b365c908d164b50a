// The engine front door: one RunConfig carrying the engine kind, the
// per-engine knobs, and an optional Tracer, dispatched through
// engine::run(). The only place that constructs an engine: the CLI, the plan
// executor, the query server and the differential oracle all come through
// here.
#pragma once

#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "engine/async_engine.hpp"
#include "engine/lazy_block_engine.hpp"
#include "engine/lazy_vertex_engine.hpp"
#include "engine/sync_engine.hpp"

namespace lazygraph::engine {

enum class EngineKind { kSync, kAsync, kLazyBlock, kLazyVertex };

inline const char* to_string(EngineKind k) {
  switch (k) {
    case EngineKind::kSync: return "powergraph-sync";
    case EngineKind::kAsync: return "powergraph-async";
    case EngineKind::kLazyBlock: return "lazygraph-block";
    case EngineKind::kLazyVertex: return "lazygraph-vertex";
  }
  return "?";
}

/// Inverse of to_string(EngineKind). Also accepts the CLI short aliases
/// ("sync", "async", "lazy-block", "lazy-vertex"); throws
/// std::invalid_argument on anything else.
inline EngineKind engine_kind_from_string(const std::string& s) {
  for (EngineKind k : {EngineKind::kSync, EngineKind::kAsync,
                       EngineKind::kLazyBlock, EngineKind::kLazyVertex}) {
    if (s == to_string(k)) return k;
  }
  if (s == "sync") return EngineKind::kSync;
  if (s == "async") return EngineKind::kAsync;
  if (s == "lazy-block") return EngineKind::kLazyBlock;
  if (s == "lazy-vertex") return EngineKind::kLazyVertex;
  throw std::invalid_argument("unknown engine: " + s);
}

/// Everything one engine run needs beyond the graph, program and cluster.
/// Common fields are hoisted; engine-specific knobs apply only to the kind
/// that reads them and are harmless otherwise.
struct RunConfig {
  EngineKind kind = EngineKind::kLazyBlock;

  // --- common ---
  /// Bound on outer iterations: supersteps (sync/lazy-block), Gauss-Seidel
  /// rounds (async), queue cycles (lazy-vertex).
  std::uint64_t max_supersteps = 1'000'000;
  /// E/V ratio of the user-view graph feeding the adaptive interval model;
  /// <= 0 derives it from the DistributedGraph's user view.
  double graph_ev_ratio = 0.0;
  /// Optional span/snapshot recorder, attached to the cluster for the run.
  sim::Tracer* tracer = nullptr;
  /// Direction policy for the chunked snapshot sweeps (sync scatter and
  /// lazy-block coherency sweeps): push staging, CSC pull, or the adaptive
  /// frontier-density rule. The Gauss-Seidel sweeps (async, lazy-vertex,
  /// lazy-block Stage 1) are push by definition and ignore it.
  SweepDirection sweep = SweepDirection::kAdaptive;

  // --- lazy-block ---
  IntervalModelConfig interval = {};
  CommModePolicy comm_policy = CommModePolicy::kAdaptive;

  // --- lazy-vertex ---
  /// Local applies a spanning replica may perform between coherency events.
  std::uint32_t staleness = 4;

  // --- pipeline-stage injection (plan layer; see src/plan/) ---
  /// Global ids (ascending) restricting the engines' init-message placement
  /// scan to this worklist. Results are bit-identical to a full scan whenever
  /// the list covers every vertex the program would initialize — the pipeline
  /// lowerer always passes the downstream stage's full scope, so this is
  /// purely a sweep_scanned optimization. Not owned; may be null.
  const std::vector<vid_t>* initial_frontier = nullptr;
  /// Type-erased `const std::vector<typename P::VData>*` (indexed by global
  /// id) seeding every replica's vdata instead of prog.init_data — the
  /// carried-state warm start of pipeline refinement stages. Not owned.
  const void* initial_state = nullptr;
};

/// Runs `prog` over `dg` on `cluster` with the engine cfg.kind selects.
/// All engines return the same RunResult field set; when cfg.tracer is set
/// it is attached for the duration of the run (restoring any tracer the
/// cluster already had) and handed back via RunResult::trace. A non-empty
/// `inspector` is called at every point where the engine guarantees
/// coherent replicas (see each engine's set_coherency_inspector). It is an
/// argument rather than a RunConfig field because its type depends on P.
template <VertexProgram P>
RunResult<P> run(const RunConfig& cfg, const partition::DistributedGraph& dg,
                 const P& prog, sim::Cluster& cluster,
                 std::type_identity_t<CoherencyInspector<P>> inspector = {}) {
  sim::Tracer* const previous = cluster.tracer();
  if (cfg.tracer) {
    cluster.set_tracer(cfg.tracer);
    cfg.tracer->set_run_info(to_string(cfg.kind));
  }
  const double ev_ratio =
      cfg.graph_ev_ratio > 0.0 ? cfg.graph_ev_ratio : dg.user_ev_ratio();

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

  auto run_engine = [&](auto&& e) {
    e.set_coherency_inspector(std::move(inspector));
    return e.run();
  };
  RunResult<P> result;
  switch (cfg.kind) {
    case EngineKind::kSync:
      result = run_engine(SyncEngine<P>(
          dg, prog, cluster, {cfg.max_supersteps, injp, cfg.sweep}));
      break;
    case EngineKind::kAsync:
      result = run_engine(
          AsyncEngine<P>(dg, prog, cluster, {cfg.max_supersteps, injp}));
      break;
    case EngineKind::kLazyBlock:
      result = run_engine(LazyBlockAsyncEngine<P>(
          dg, prog, cluster,
          {cfg.max_supersteps, cfg.interval, cfg.comm_policy, injp, cfg.sweep},
          ev_ratio));
      break;
    case EngineKind::kLazyVertex:
      result = run_engine(LazyVertexAsyncEngine<P>(
          dg, prog, cluster, {cfg.max_supersteps, cfg.staleness, injp}));
      break;
  }
  if (cfg.tracer) cluster.set_tracer(previous);
  return result;
}

}  // namespace lazygraph::engine
