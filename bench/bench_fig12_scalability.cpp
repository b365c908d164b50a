// Reproduces Fig. 12: scalability of LazyGraph, PowerGraph Sync and
// PowerGraph Async with increasing machine counts, for PageRank and SSSP on
// the web (UK-2005), road (road-USA) and social (twitter) representatives
// — panels (a)-(f) — plus the 16- and 24-machine speedup summaries (g, h).
//
// Expected shapes: LazyGraph and Sync improve (or hold) as machines grow;
// Async is competitive at small scale but degrades on the road and web
// graphs past ~16 machines (eager fine-grained traffic grows with the
// replication factor).
#include <iostream>

#include "experiment_matrix.hpp"

using namespace lazygraph;
using bench::Algo;

int main(int argc, char** argv) try {
  const Options opts(argc, argv, {"scale"});
  bench::ExperimentConfig cfg;
  cfg.dataset_scale = opts.get_double("scale", 1.0);
  const std::vector<machine_t> machine_counts = {8, 16, 24, 32, 40, 48};
  const std::vector<std::string> graphs = {"uk2005-like", "roadusa-like",
                                           "twitter-like"};
  const std::vector<Algo> algos = {Algo::kPageRank, Algo::kSSSP};

  // Panels (a)-(f): time vs machines.
  for (const Algo algo : algos) {
    for (const auto& name : graphs) {
      const auto& spec = datasets::spec_by_name(name);
      std::cout << "--- Fig. 12: " << to_string(algo) << " on " << name
                << " ---\n";
      Table t({"machines", "sync(s)", "async(s)", "lazy(s)"});
      for (const machine_t p : machine_counts) {
        cfg.machines = p;
        const auto sync =
            bench::run_cell(algo, spec, engine::EngineKind::kSync, cfg);
        const auto async =
            bench::run_cell(algo, spec, engine::EngineKind::kAsync, cfg);
        const auto lazy =
            bench::run_cell(algo, spec, engine::EngineKind::kLazyBlock, cfg);
        t.add_row({Table::num(p), Table::num(sync.sim_seconds, 3),
                   Table::num(async.sim_seconds, 3),
                   Table::num(lazy.sim_seconds, 3)});
      }
      t.print(std::cout);
      std::cout << '\n';
    }
  }

  // Panels (g), (h): speedups of lazy over sync/async at 16 and 24 machines.
  for (const machine_t p : {16u, 24u}) {
    cfg.machines = p;
    std::cout << "--- Fig. 12(" << (p == 16 ? 'g' : 'h') << "): speedups on "
              << p << " machines ---\n";
    Table t({"algo", "graph", "lazy-vs-sync", "lazy-vs-async"});
    for (const Algo algo : algos) {
      for (const auto& name : graphs) {
        const auto& spec = datasets::spec_by_name(name);
        const auto sync =
            bench::run_cell(algo, spec, engine::EngineKind::kSync, cfg);
        const auto async =
            bench::run_cell(algo, spec, engine::EngineKind::kAsync, cfg);
        const auto lazy =
            bench::run_cell(algo, spec, engine::EngineKind::kLazyBlock, cfg);
        t.add_row({to_string(algo), name,
                   Table::num(sync.sim_seconds / lazy.sim_seconds, 2),
                   Table::num(async.sim_seconds / lazy.sim_seconds, 2)});
      }
    }
    t.print(std::cout);
    std::cout << '\n';
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
