// Ablations for the design choices DESIGN.md calls out (beyond the paper's
// own figures):
//   1. Edge splitter on/off for the lazy engine.
//   2. Partitioner choice (random / grid / coordinated / hybrid) vs the
//      replication factor and lazy runtime.
//   3. Interval trend-threshold sweep around the paper's 0.07.
//   4. LazyVertexAsync (the paper's future-work engine) vs LazyBlockAsync.
#include <iostream>

#include "experiment_matrix.hpp"

using namespace lazygraph;
using bench::Algo;

int main(int argc, char** argv) try {
  const Options opts(argc, argv, {"machines", "scale"});
  bench::ExperimentConfig cfg;
  cfg.machines = static_cast<machine_t>(opts.get_int("machines", 48));
  cfg.dataset_scale = opts.get_double("scale", 1.0);

  // --- 1. Edge splitter on/off ---
  // A generous t_extra budget (the user knob) makes the effect visible at
  // analogue scale; the default 0.02s budget sizes to a handful of edges.
  std::cout << "Ablation 1: edge splitter (lazy engine, PageRank, "
               "t_extra=0.5)\n\n";
  {
    Table t({"graph", "split-on(s)", "split-off(s)", "benefit",
             "replication"});
    cfg.splitter_t_extra = 0.5;
    for (const auto& name :
         {"uk2005-like", "twitter-like", "roadusa-like"}) {
      const auto& spec = datasets::spec_by_name(name);
      cfg.edge_split = true;
      const auto on = bench::run_cell(Algo::kPageRank, spec,
                                      engine::EngineKind::kLazyBlock, cfg);
      cfg.edge_split = false;
      const auto off = bench::run_cell(Algo::kPageRank, spec,
                                       engine::EngineKind::kLazyBlock, cfg);
      cfg.edge_split = true;
      t.add_row({name, Table::num(on.sim_seconds, 3),
                 Table::num(off.sim_seconds, 3),
                 Table::num(off.sim_seconds / on.sim_seconds, 2),
                 Table::num(on.replication_factor, 2)});
    }
    cfg.splitter_t_extra = 0.02;
    t.print(std::cout);
  }

  // --- 2. Partitioner choice ---
  std::cout << "\nAblation 2: vertex-cut partitioner vs lambda and lazy "
               "runtime (SSSP)\n\n";
  {
    Table t({"graph", "cut", "lambda", "lazy(s)"});
    for (const auto& name : {"livejournal-like", "roadusa-like"}) {
      const auto& spec = datasets::spec_by_name(name);
      for (const auto cut :
           {partition::CutKind::kRandom, partition::CutKind::kGrid,
            partition::CutKind::kOblivious, partition::CutKind::kCoordinated,
            partition::CutKind::kHybrid}) {
        cfg.cut = cut;
        const auto r = bench::run_cell(Algo::kSSSP, spec,
                                       engine::EngineKind::kLazyBlock, cfg);
        t.add_row({name, to_string(cut), Table::num(r.replication_factor, 2),
                   Table::num(r.sim_seconds, 3)});
      }
    }
    cfg.cut = partition::CutKind::kCoordinated;
    t.print(std::cout);
    std::cout << "(lower lambda -> less coherency traffic -> faster; "
                 "coordinated should win or tie)\n";
  }

  // --- 3. LazyVertexAsync vs LazyBlockAsync ---
  std::cout << "\nAblation 3: LazyVertexAsync (future-work engine) vs "
               "LazyBlockAsync (SSSP)\n\n";
  {
    Table t({"graph", "lazy-block(s)", "lazy-vertex(s)", "lv-coherency-msgs"});
    for (const auto& name : {"roadusa-like", "webgoogle-like"}) {
      const auto& spec = datasets::spec_by_name(name);
      const auto lb = bench::run_cell(Algo::kSSSP, spec,
                                      engine::EngineKind::kLazyBlock, cfg);
      const auto lv = bench::run_cell(Algo::kSSSP, spec,
                                      engine::EngineKind::kLazyVertex, cfg);
      t.add_row({name, Table::num(lb.sim_seconds, 3),
                 Table::num(lv.sim_seconds, 3),
                 Table::num(lv.network_messages)});
    }
    t.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
