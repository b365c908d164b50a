// The contract between engine::run's driver and the four coherency
// policies. The driver (run.hpp) owns everything the engines share — the
// replica states, the superstep counters, the tracer snapshot, the
// coherency inspector, the recovery guard and the result — and each engine
// is only its protocol: an init step, then one step per superstep that
// reports back through StepReport.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/comm_mode.hpp"
#include "engine/interval_model.hpp"
#include "engine/sweep_direction.hpp"
#include "sim/trace.hpp"
#include "util/common.hpp"
#include "util/function_ref.hpp"

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
  /// Bound on the driver's steps: supersteps (sync/lazy-block), Gauss-Seidel
  /// rounds (async), queue cycles including the uncounted terminal one
  /// (lazy-vertex).
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

/// Opens the current step's superstep (bumps the run's and the cluster's
/// counters). A policy calls it before the step's first charge, because
/// every span is tagged with metrics().supersteps at charge time. A step
/// that never opens is not counted: it gets no snapshot and no guard.
using OpenSuperstep = util::FunctionRef<void()>;

/// What one policy step tells the driver.
struct StepReport {
  /// Replicas of every vertex hold the identical global view at step end,
  /// so the coherency inspector fires.
  bool coherent = true;
  /// The run is done; the driver stops after this step's end-of-step work.
  bool converged = false;
  /// Decision-log fields of a counted step; the driver stamps `superstep`.
  sim::SuperstepSnapshot snapshot = {};
};

}  // namespace lazygraph::engine
