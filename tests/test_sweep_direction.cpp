// Direction-optimizing sweep tests: the pull direction over the CSC in-edge
// mirror and the adaptive push/pull switch must be invisible in results —
// bit-identical state, identical supersteps, identical simulated time and
// traffic — for every engine, cluster thread count, and partition cut. Plus
// the structural contracts behind that guarantee: the CSC mirror's
// per-target fold order equals the push merge order, and the edge-balanced
// chunk decomposition is purely degree-derived.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "lazygraph.hpp"

namespace lazygraph {
namespace {

using engine::PartState;
using engine::SweepCounters;
using engine::SweepDirection;
using engine::SweepMode;

partition::DistributedGraph make_dg(const Graph& g, machine_t machines,
                                    bool split) {
  const auto assignment = partition::assign_edges(
      g, machines, {partition::CutKind::kCoordinated, 7});
  std::vector<std::uint64_t> split_edges;
  if (split) split_edges = partition::select_split_edges(g, machines, {});
  return partition::DistributedGraph::build(g, machines, assignment,
                                            split_edges);
}

// --------------------------------------------- engine-level bit-identity

/// Runs `prog` on `kind` under all three directions and requires the pull
/// and adaptive runs to be indistinguishable from push: same convergence,
/// same superstep count, same simulated seconds, same traffic, and
/// bit-identical per-vertex state (via the program-specific `eq`).
template <class P, class Eq>
void expect_direction_invariant(const partition::DistributedGraph& dg,
                                machine_t machines, const P& prog,
                                engine::EngineKind kind, std::size_t threads,
                                Eq&& eq, const std::string& tag) {
  std::vector<engine::RunResult<P>> rs;
  for (const SweepDirection dir :
       {SweepDirection::kPush, SweepDirection::kPull,
        SweepDirection::kAdaptive}) {
    sim::Cluster cluster({machines, {}, threads});
    engine::RunConfig cfg;
    cfg.kind = kind;
    cfg.sweep = dir;
    rs.push_back(engine::run(cfg, dg, prog, cluster));
    ASSERT_TRUE(rs.back().converged) << tag;
  }
  // Forced push never pulls; forced pull really exercises the CSC path on
  // the engines with snapshot sweeps (the Gauss-Seidel engines are push by
  // definition, so the knob is inert there).
  EXPECT_EQ(rs[0].metrics.sweep_pull_rounds, 0u) << tag;
  if (kind == engine::EngineKind::kSync ||
      kind == engine::EngineKind::kLazyBlock) {
    EXPECT_GT(rs[1].metrics.sweep_pull_rounds, 0u) << tag;
  } else {
    EXPECT_EQ(rs[1].metrics.sweep_pull_rounds, 0u) << tag;
  }
  for (std::size_t i = 1; i < rs.size(); ++i) {
    ASSERT_EQ(rs[i].supersteps, rs[0].supersteps) << tag << " dir " << i;
    ASSERT_EQ(rs[i].metrics.sim_seconds(), rs[0].metrics.sim_seconds())
        << tag << " dir " << i;
    ASSERT_EQ(rs[i].metrics.network_bytes, rs[0].metrics.network_bytes)
        << tag << " dir " << i;
    ASSERT_EQ(rs[i].data.size(), rs[0].data.size()) << tag;
    for (std::size_t v = 0; v < rs[0].data.size(); ++v) {
      ASSERT_TRUE(eq(rs[i].data[v], rs[0].data[v]))
          << tag << " dir " << i << " vertex " << v;
    }
  }
}

void run_direction_matrix(engine::EngineKind kind, bool split) {
  const machine_t machines = 4;
  // Directed cell for SSSP / PageRank; symmetrized cell for the undirected
  // programs (k-core and components are undirected notions).
  const Graph gd = gen::erdos_renyi(220, 1100, 19, {1.0f, 5.0f});
  const Graph gu = gen::erdos_renyi(200, 700, 23).symmetrized();
  const auto dgd = make_dg(gd, machines, split);
  const auto dgu = make_dg(gu, machines, split);
  const std::string base = std::string(engine::to_string(kind)) +
                           (split ? "/split" : "/unsplit") + "/threads=";
  for (const std::size_t threads : {1u, 4u}) {
    const std::string tag = base + std::to_string(threads);
    expect_direction_invariant(
        dgd, machines, algos::SSSP{.source = 0}, kind, threads,
        [](const algos::SSSP::VData& a, const algos::SSSP::VData& b) {
          return a.dist == b.dist;
        },
        tag + "/sssp");
    expect_direction_invariant(
        dgd, machines, algos::PageRankDelta{}, kind, threads,
        [](const algos::PageRankDelta::VData& a,
           const algos::PageRankDelta::VData& b) {
          return a.rank == b.rank && a.pending_delta == b.pending_delta;
        },
        tag + "/pagerank");
    expect_direction_invariant(
        dgu, machines, algos::KCore{.k = 3}, kind, threads,
        [](const algos::KCore::VData& a, const algos::KCore::VData& b) {
          return a.core == b.core && a.deleted == b.deleted;
        },
        tag + "/kcore");
    expect_direction_invariant(
        dgu, machines, algos::ConnectedComponents{}, kind, threads,
        [](const algos::ConnectedComponents::VData& a,
           const algos::ConnectedComponents::VData& b) {
          return a.label == b.label;
        },
        tag + "/cc");
  }
}

TEST(SweepDirectionMatrix, SyncUnsplit) {
  run_direction_matrix(engine::EngineKind::kSync, false);
}
TEST(SweepDirectionMatrix, SyncSplit) {
  run_direction_matrix(engine::EngineKind::kSync, true);
}
TEST(SweepDirectionMatrix, LazyBlockUnsplit) {
  run_direction_matrix(engine::EngineKind::kLazyBlock, false);
}
TEST(SweepDirectionMatrix, LazyBlockSplit) {
  run_direction_matrix(engine::EngineKind::kLazyBlock, true);
}
TEST(SweepDirectionMatrix, AsyncUnsplitKnobInert) {
  run_direction_matrix(engine::EngineKind::kAsync, false);
}
TEST(SweepDirectionMatrix, LazyVertexUnsplitKnobInert) {
  run_direction_matrix(engine::EngineKind::kLazyVertex, false);
}

// ------------------------------------------------------- CSC mirror order

/// The structural contract of DESIGN §5k: each target's in-edge run must
/// list exactly the CSR edges aimed at it, in (source lvid asc, original
/// edge index asc) order — the order the push merge folds that target.
void expect_csc_matches_push_fold_order(const partition::Part& part) {
  const lvid_t n = part.num_local();
  ASSERT_EQ(part.in_offsets.size(), static_cast<std::size_t>(n) + 1);
  ASSERT_EQ(part.in_offsets[0], 0u);
  ASSERT_EQ(part.in_offsets[n], part.num_local_edges());
  ASSERT_EQ(part.in_sources.size(), part.num_local_edges());
  ASSERT_EQ(part.in_weights.size(), part.num_local_edges());
  ASSERT_EQ(part.in_parallel_mode.size(), part.num_local_edges());

  std::vector<std::vector<std::tuple<lvid_t, float, std::uint8_t>>> want(n);
  for (lvid_t v = 0; v < n; ++v) {
    for (std::uint64_t e = part.offsets[v]; e < part.offsets[v + 1]; ++e) {
      want[part.targets[e]].push_back(
          {v, part.weights[e], part.parallel_mode[e]});
    }
  }
  for (lvid_t t = 0; t < n; ++t) {
    const std::uint64_t begin = part.in_offsets[t];
    const std::uint64_t end = part.in_offsets[t + 1];
    ASSERT_LE(begin, end) << "target " << t;
    ASSERT_EQ(end - begin, want[t].size()) << "target " << t;
    ASSERT_EQ(end - begin, part.local_in_degree[t]) << "target " << t;
    for (std::uint64_t i = 0; i < end - begin; ++i) {
      EXPECT_EQ(part.in_sources[begin + i], std::get<0>(want[t][i]))
          << "target " << t << " slot " << i;
      EXPECT_EQ(part.in_weights[begin + i], std::get<1>(want[t][i]))
          << "target " << t << " slot " << i;
      EXPECT_EQ(part.in_parallel_mode[begin + i], std::get<2>(want[t][i]))
          << "target " << t << " slot " << i;
    }
  }
}

TEST(CscMirror, ParallelEdgesSelfLoopsAndEmptyTargets) {
  // Duplicate parallel edges 0->1 and 0->2 (distinct weights), a self-loop
  // 1->1, vertex 3 with out-edges only (empty in-edge run), vertex 6 fully
  // isolated. Graph keeps duplicates (simplification is a separate op).
  std::vector<Edge> edges = {
      {0, 1, 1.0f}, {0, 1, 2.0f}, {2, 1, 3.0f}, {1, 1, 4.0f},
      {3, 2, 1.5f}, {0, 2, 2.5f}, {0, 2, 2.75f}, {4, 0, 1.0f},
      {2, 4, 1.0f}, {5, 2, 0.5f}, {4, 5, 1.25f},
  };
  const Graph g(7, std::move(edges));
  for (const machine_t machines : {machine_t{1}, machine_t{3}}) {
    for (const bool split : {false, true}) {
      const auto dg = make_dg(g, machines, split);
      for (machine_t m = 0; m < machines; ++m) {
        SCOPED_TRACE("machines=" + std::to_string(machines) +
                     " split=" + std::to_string(split) +
                     " m=" + std::to_string(m));
        expect_csc_matches_push_fold_order(dg.part(m));
      }
    }
  }
}

TEST(CscMirror, RandomGraphEveryMachineEveryCut) {
  const Graph g = gen::erdos_renyi(300, 1800, 31, {1.0f, 4.0f});
  for (const bool split : {false, true}) {
    const auto dg = make_dg(g, 4, split);
    for (machine_t m = 0; m < 4; ++m) {
      SCOPED_TRACE("split=" + std::to_string(split) +
                   " m=" + std::to_string(m));
      expect_csc_matches_push_fold_order(dg.part(m));
    }
  }
}

// --------------------------------------------------- edge-balanced chunks

TEST(EdgeBalancedChunks, BoundsAreDegreeDerivedAndCoverEveryItem) {
  const Graph g = gen::erdos_renyi(500, 6000, 11, {1.0f, 4.0f});
  const auto dg = make_dg(g, 1, false);
  const partition::Part& part = dg.part(0);
  const std::size_t n = part.num_local();
  const auto weight = [&](std::size_t v) {
    return 1 + (part.offsets[v + 1] - part.offsets[v]);
  };

  std::vector<std::size_t> bounds;
  std::vector<std::uint64_t> weights;
  engine::build_weighted_chunks(n, weight, bounds, &weights);

  ASSERT_GE(bounds.size(), 2u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), n);
  EXPECT_EQ(weights.size(), bounds.size() - 1);
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    ASSERT_LT(bounds[c], bounds[c + 1]) << "chunk " << c;
    std::uint64_t sum = 0;
    for (std::size_t i = bounds[c]; i < bounds[c + 1]; ++i) sum += weight(i);
    EXPECT_EQ(weights[c], sum) << "chunk " << c;
    if (c + 2 < bounds.size()) {
      // Every chunk but the last closes at the fixed cumulative budget.
      EXPECT_GE(weights[c], engine::kSweepEdgeBudget) << "chunk " << c;
    }
  }
  // The decomposition depends on the weights alone; repeated evaluation is
  // bit-stable.
  std::vector<std::size_t> bounds2;
  engine::build_weighted_chunks(n, weight, bounds2, nullptr);
  EXPECT_EQ(bounds2, bounds);
}

TEST(EdgeBalancedChunks, ZeroDegreeRunsStillAdvanceTheBudget) {
  // 10k isolated items at weight 1 each must still close chunks (no
  // unbounded chunk on zero-degree tails).
  std::vector<std::size_t> bounds;
  engine::build_weighted_chunks(
      10000, [](std::size_t) { return std::uint64_t{1}; }, bounds, nullptr);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 10000u);
  EXPECT_GT(bounds.size(), 2u);
  for (std::size_t c = 0; c + 2 < bounds.size(); ++c) {
    EXPECT_EQ(bounds[c + 1] - bounds[c],
              static_cast<std::size_t>(engine::kSweepEdgeBudget))
        << c;
  }
}

// ------------------------------------------- local sweep: counter parity

/// Single-machine fixture (the whole graph on one part).
template <class P>
struct LocalRig {
  Graph g;
  partition::DistributedGraph dg;
  P prog;
  std::vector<PartState<P>> states;

  explicit LocalRig(Graph graph, P p = {})
      : g(std::move(graph)),
        dg(partition::DistributedGraph::build(
            g, 1,
            partition::assign_edges(
                g, 1, {partition::CutKind::kCoordinated, 1}))),
        prog(p),
        states(engine::make_states(dg, prog)) {}

  const partition::Part& part() const { return dg.part(0); }
  PartState<P>& state() { return states[0]; }
};

TEST(SweepDirectionLocal, ForcedPullBitIdenticalWithCounterParity) {
  LocalRig<algos::SSSP> rig(gen::erdos_renyi(400, 2400, 7, {1.0f, 4.0f}));
  const lvid_t n = rig.part().num_local();
  for (lvid_t v = 0; v < n; ++v) {
    engine::deposit_msg(rig.prog, rig.state(), v, 1.0 + 0.25 * v);
  }
  PartState<algos::SSSP> pull_state = rig.state();

  const SweepCounters cpush =
      engine::local_sweep(rig.prog, rig.part(), rig.state(),
                          SweepMode::kSnapshot, SweepDirection::kPush);
  const SweepCounters cpull =
      engine::local_sweep(rig.prog, rig.part(), pull_state,
                          SweepMode::kSnapshot, SweepDirection::kPull);

  // The deterministic counters are direction-invariant...
  EXPECT_EQ(cpull.work, cpush.work);
  EXPECT_EQ(cpull.applies, cpush.applies);
  EXPECT_EQ(cpull.scanned, cpush.scanned);
  // ...while the direction-specific ones expose which path ran.
  EXPECT_EQ(cpush.pull_rounds, 0u);
  EXPECT_EQ(cpull.pull_rounds, 1u);
  EXPECT_GT(cpush.staged, 0u);
  EXPECT_EQ(cpull.staged, 0u);
  EXPECT_EQ(cpush.pushed, cpush.work - cpush.applies);
  EXPECT_GE(cpull.pulled, cpull.work - cpull.applies);
  EXPECT_GT(cpull.staging_avoided_bytes, 0u);

  for (lvid_t v = 0; v < n; ++v) {
    ASSERT_EQ(pull_state.vdata[v].dist, rig.state().vdata[v].dist) << v;
  }
  ASSERT_EQ(pull_state.has_msg, rig.state().has_msg);
  ASSERT_EQ(pull_state.has_delta, rig.state().has_delta);
  for (lvid_t v = 0; v < n; ++v) {
    if (rig.state().has_msg[v]) {
      EXPECT_EQ(pull_state.msg[v], rig.state().msg[v]) << "msg " << v;
    }
    if (rig.state().has_delta[v]) {
      EXPECT_EQ(pull_state.delta[v], rig.state().delta[v]) << "delta " << v;
    }
  }
}

TEST(SweepDirectionLocal, AdaptivePicksPullWhenDensePushWhenSparse) {
  {
    LocalRig<algos::SSSP> rig(gen::erdos_renyi(400, 2400, 9, {1.0f, 4.0f}));
    const lvid_t n = rig.part().num_local();
    for (lvid_t v = 0; v < n; ++v) {
      engine::deposit_msg(rig.prog, rig.state(), v, 1.0 + 0.5 * v);
    }
    // Full frontier: 2 * frontier_out_edges = 2E >= E, so adaptive pulls.
    const SweepCounters c = engine::local_sweep(
        rig.prog, rig.part(), rig.state(), SweepMode::kSnapshot,
        SweepDirection::kAdaptive);
    EXPECT_EQ(c.pull_rounds, 1u);
    EXPECT_EQ(c.staged, 0u);
  }
  {
    LocalRig<algos::SSSP> rig(gen::erdos_renyi(400, 2400, 9, {1.0f, 4.0f}));
    // One seed vertex: its out-degree is a sliver of E, so adaptive pushes.
    engine::deposit_msg(rig.prog, rig.state(), 0, 0.0);
    const SweepCounters c = engine::local_sweep(
        rig.prog, rig.part(), rig.state(), SweepMode::kSnapshot,
        SweepDirection::kAdaptive);
    EXPECT_EQ(c.pull_rounds, 0u);
  }
}

}  // namespace
}  // namespace lazygraph
