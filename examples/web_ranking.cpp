// Web ranking on the UK-2005 web-crawl analogue, written against the plan
// API: record `cc(seed) |> pagerank(tol)` and lower it once. CC narrows the
// scope to the seed page's connected component, and the executor carries
// that component as PageRank's initial frontier — a personalized ranking of
// the seed's reachable web, computed without touching the other components.
//
//   ./web_ranking [--machines=16] [--scale=0.2] [--tol=1e-3] [--top=10]
//                 [--seed-page=0]
#include <algorithm>
#include <iostream>
#include <vector>

#include "lazygraph.hpp"

using namespace lazygraph;

int main(int argc, char** argv) try {
  const Options opts(argc, argv, {"machines", "scale", "seed-page", "tol",
      "top"});
  const auto machines =
      static_cast<machine_t>(opts.get_int("machines", 16));
  const double scale = opts.get_double("scale", 0.2);
  const double tol = opts.get_double("tol", 1e-3);
  const auto top = static_cast<std::size_t>(opts.get_int("top", 10));

  const Graph g = datasets::make(datasets::spec_by_name("uk2005-like"), scale);
  std::cout << "web graph: " << g.num_vertices() << " pages, "
            << g.num_edges() << " links, E/V="
            << Table::num(g.edge_vertex_ratio(), 2) << "\n";

  const auto seed_page =
      static_cast<vid_t>(opts.get_int("seed-page", 0));
  require(seed_page < g.num_vertices(), "seed-page out of range");

  plan::Pipeline pipe;
  pipe.cc(seed_page).pagerank(tol);
  std::cout << "pipeline: " << pipe.to_string() << "\n\n";

  plan::Executor ex(g, machines,
                    {.kind = partition::CutKind::kCoordinated, .seed = 2018},
                    &partition::ArtifactCache::global());
  const auto res = ex.run(pipe, {});
  if (!res.converged) {
    std::cout << "pipeline did not converge\n";
    return 1;
  }
  std::cout << "lowered: " << res.engine_runs << " engine run(s), "
            << res.partitions_computed << " partition(s), "
            << res.builds_computed << " build(s)\n";

  Table t({"stage", "scope", "frontier", "sim-time(s)", "global-syncs",
           "traffic(MB)", "supersteps"});
  for (const auto& r : res.stages) {
    t.add_row({r.stage, Table::num(r.scope_size),
               Table::num(r.carried_frontier), Table::num(r.sim_seconds, 4),
               Table::num(r.global_syncs),
               Table::num(static_cast<double>(r.network_bytes) / 1e6, 3),
               Table::num(r.supersteps)});
  }
  t.print(std::cout);

  // Rank only the seed's component: that is exactly the scope CC handed on.
  const auto& component = *res.outcomes[0].scope_out;
  const auto& ranks = res.data_as<algos::PageRankDelta>(1);
  std::vector<vid_t> order(component.members);
  const std::size_t n = std::min(top, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(n),
                    order.end(), [&](vid_t a, vid_t b) {
                      return ranks[a].rank > ranks[b].rank;
                    });
  std::cout << "\nseed page " << seed_page << "'s component: "
            << component.size() << " pages\n";
  std::cout << "top-" << n << " pages by rank within it:\n";
  for (std::size_t i = 0; i < n; ++i) {
    std::cout << "  page " << order[i] << "  rank "
              << Table::num(ranks[order[i]].rank, 3) << "\n";
  }

  // The composed lowering must be bit-identical to the per-stage reference.
  plan::Executor ref(g, machines,
                     {.kind = partition::CutKind::kCoordinated, .seed = 2018},
                     nullptr);
  const auto seq = ref.run(pipe, plan::sequential_baseline({}));
  bool identical = seq.converged;
  for (std::size_t i = 0; identical && i < res.outcomes.size(); ++i) {
    identical = res.outcomes[i].digest == seq.outcomes[i].digest;
  }
  std::cout << (identical
                    ? "\ncomposed lowering bit-identical to sequential\n"
                    : "\nMISMATCH vs sequential lowering!\n");
  return identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
