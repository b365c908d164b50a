// Quickstart: build a small graph, partition it over 4 simulated machines,
// run PageRank on both PowerGraph-Sync and LazyGraph, and compare the work
// the two coherency protocols did.
#include <iostream>

#include "lazygraph.hpp"

using namespace lazygraph;

int main() try {
  // 1. A user-view graph: a small scale-free network.
  const Graph g = gen::rmat(/*scale=*/10, /*edges_per_vertex=*/8, 0.57, 0.19,
                            0.19, /*seed=*/42);
  std::cout << "graph: " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges\n";

  // 2. Vertex-cut partition over 4 machines (coordinated greedy cut).
  const machine_t machines = 4;
  const auto assignment = partition::assign_edges(
      g, machines, {partition::CutKind::kCoordinated, /*seed=*/1});
  const auto dg = partition::DistributedGraph::build(g, machines, assignment);
  std::cout << "replication factor lambda = " << dg.replication_factor()
            << "\n\n";

  // 3. Run PageRank under eager (PowerGraph Sync) and lazy (LazyGraph)
  //    replica coherency, tracing where each run's simulated time went.
  const algos::PageRankDelta pr{.tol = 1e-3};
  for (const auto kind :
       {engine::EngineKind::kSync, engine::EngineKind::kLazyBlock}) {
    sim::Cluster cluster({.machines = machines});
    sim::Tracer tracer;
    const auto result =
        engine::run({.kind = kind, .tracer = &tracer}, dg, pr, cluster);
    std::cout << to_string(kind) << ": converged=" << result.converged
              << " supersteps=" << result.supersteps << "\n";
    result.metrics.print(std::cout, std::string("  ") + to_string(kind));
    std::cout << "  where the time went:\n";
    tracer.kind_summary_table().print(std::cout);

    // Top-5 ranked vertices.
    std::vector<vid_t> order(g.num_vertices());
    for (vid_t v = 0; v < g.num_vertices(); ++v) order[v] = v;
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](vid_t a, vid_t b) {
                        return result.data[a].rank > result.data[b].rank;
                      });
    std::cout << "  top ranks:";
    for (int i = 0; i < 5; ++i) {
      std::cout << " v" << order[i] << "=" << Table::num(
          result.data[order[i]].rank, 2);
    }
    std::cout << "\n\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
