// Allocation-count probe for the hot path: after the slab-arena PartState
// and pooled SweepScratch overhaul, steady-state supersteps perform ZERO
// heap allocations on the serial cluster path. The probe replaces the
// global allocator with counting versions and samples the counter at every
// coherency point; once warm (worklists, scratch, and chunk buckets have
// reached their high-water capacity), each further superstep's delta must
// be exactly zero. Also home to the inspector parity check between
// engine::run and direct engine construction.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "test_support.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace lazygraph {
namespace {

/// Samples g_allocs at each coherency point and returns the per-superstep
/// deltas. The sample vector is pre-reserved so the probe itself never
/// allocates inside the run.
template <class Engine>
std::vector<std::uint64_t> alloc_deltas(Engine& eng, std::size_t max_steps) {
  std::vector<std::uint64_t> samples;
  samples.reserve(max_steps);
  eng.set_coherency_inspector(
      [&](std::uint64_t, const auto&) {
        if (samples.size() < samples.capacity()) {
          samples.push_back(g_allocs.load(std::memory_order_relaxed));
        }
      });
  const auto r = eng.run();
  EXPECT_TRUE(r.converged);
  std::vector<std::uint64_t> deltas;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    deltas.push_back(samples[i] - samples[i - 1]);
  }
  return deltas;
}

void expect_steady_state_alloc_free(const std::vector<std::uint64_t>& deltas,
                                    std::size_t warmup) {
  ASSERT_GT(deltas.size(), warmup + 2)
      << "run too short for a steady-state window";
  for (std::size_t i = warmup; i < deltas.size(); ++i) {
    EXPECT_EQ(deltas[i], 0u) << "superstep " << i + 1 << " allocated";
  }
}

TEST(AllocProbe, SyncEngineSteadyStateAllocatesNothing) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg = testsupport::build_dgraph(g, 4);
  auto cluster = testsupport::make_cluster(4);
  // Forced push: the adaptive direction switch would warm the pull path's
  // buffers whenever it first flips mid-run; each direction gets its own
  // pinned probe instead.
  engine::SyncEngine<algos::PageRankDelta> eng(
      dg, algos::PageRankDelta{.tol = 1e-3}, cluster,
      {.sweep = engine::SweepDirection::kPush});
  // Warmup 3: worklists and chunk buckets hit their high-water marks while
  // the frontier is still near-full.
  expect_steady_state_alloc_free(alloc_deltas(eng, 256), 3);
}

TEST(AllocProbe, LazyBlockEngineSteadyStateAllocatesNothing) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg =
      testsupport::build_dgraph(g, 4, partition::CutKind::kCoordinated, 7,
                                /*split=*/true);
  auto cluster = testsupport::make_cluster(4);
  engine::LazyBlockAsyncEngine<algos::PageRankDelta> eng(
      dg, algos::PageRankDelta{.tol = 1e-3}, cluster,
      {.sweep = engine::SweepDirection::kPush}, g.edge_vertex_ratio());
  expect_steady_state_alloc_free(alloc_deltas(eng, 256), 3);
}

// The pull direction must be just as allocation-free once its payload slots
// and chunk bounds are warm — it stages nothing, so if anything it retires
// the push path's bucket growth.
TEST(AllocProbe, LazyBlockForcedPullSteadyStateAllocatesNothing) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.05);
  const auto dg =
      testsupport::build_dgraph(g, 4, partition::CutKind::kCoordinated, 7,
                                /*split=*/true);
  auto cluster = testsupport::make_cluster(4);
  engine::LazyBlockAsyncEngine<algos::PageRankDelta> eng(
      dg, algos::PageRankDelta{.tol = 1e-3}, cluster,
      {.sweep = engine::SweepDirection::kPull}, g.edge_vertex_ratio());
  expect_steady_state_alloc_free(alloc_deltas(eng, 256), 3);
}

// engine::run with an inspector must behave exactly like constructing the
// engine directly and attaching the inspector: the same firing supersteps,
// and the last call sees the final replica state RunResult::data reports.
// Covers all four engines, split and unsplit where the engine accepts it.
struct InspectorTrace {
  std::vector<std::uint64_t> steps;
  std::vector<algos::PageRankDelta::VData> last;
};

engine::CoherencyInspector<algos::PageRankDelta> recording(
    const partition::DistributedGraph& dg, InspectorTrace& t) {
  return [&dg, &t](std::uint64_t step, const auto& states) {
    t.steps.push_back(step);
    t.last = engine::collect_master_data(dg, states);
  };
}

InspectorTrace direct_trace(engine::EngineKind kind,
                            const partition::DistributedGraph& dg,
                            const algos::PageRankDelta& prog) {
  InspectorTrace t;
  auto cluster = testsupport::make_cluster(dg.num_machines());
  auto run = [&](auto&& eng) {
    eng.set_coherency_inspector(recording(dg, t));
    EXPECT_TRUE(eng.run().converged);
  };
  switch (kind) {
    case engine::EngineKind::kSync:
      run(engine::SyncEngine<algos::PageRankDelta>(dg, prog, cluster));
      break;
    case engine::EngineKind::kAsync:
      run(engine::AsyncEngine<algos::PageRankDelta>(dg, prog, cluster));
      break;
    case engine::EngineKind::kLazyBlock:
      run(engine::LazyBlockAsyncEngine<algos::PageRankDelta>(
          dg, prog, cluster, {}, dg.user_ev_ratio()));
      break;
    case engine::EngineKind::kLazyVertex:
      run(engine::LazyVertexAsyncEngine<algos::PageRankDelta>(dg, prog,
                                                              cluster));
      break;
  }
  return t;
}

TEST(InspectorParity, RunFiresLikeDirectConstructionOnEveryEngine) {
  const Graph g =
      datasets::make(datasets::spec_by_name("webgoogle-like"), 0.02);
  const algos::PageRankDelta prog{.tol = 1e-3};
  for (const bool split : {false, true}) {
    const auto dg = testsupport::build_dgraph(
        g, 4, partition::CutKind::kCoordinated, 7, split);
    for (const engine::EngineKind kind :
         {engine::EngineKind::kSync, engine::EngineKind::kAsync,
          engine::EngineKind::kLazyBlock, engine::EngineKind::kLazyVertex}) {
      const bool eager = kind == engine::EngineKind::kSync ||
                         kind == engine::EngineKind::kAsync;
      if (split && eager) continue;  // eager engines run unsplit only
      const std::string tag = std::string(engine::to_string(kind)) +
                              (split ? "/split" : "/unsplit");
      const InspectorTrace want = direct_trace(kind, dg, prog);

      InspectorTrace got;
      auto cluster = testsupport::make_cluster(4);
      const auto r = engine::run({.kind = kind}, dg, prog, cluster,
                                 recording(dg, got));
      ASSERT_TRUE(r.converged) << tag;
      ASSERT_FALSE(got.steps.empty()) << tag;
      EXPECT_EQ(got.steps, want.steps) << tag;
      ASSERT_EQ(got.last.size(), r.data.size()) << tag;
      for (std::size_t v = 0; v < r.data.size(); ++v) {
        ASSERT_EQ(got.last[v].rank, r.data[v].rank) << tag << " vertex " << v;
        ASSERT_EQ(got.last[v].pending_delta, r.data[v].pending_delta)
            << tag << " vertex " << v;
      }
    }
  }
}

}  // namespace
}  // namespace lazygraph
