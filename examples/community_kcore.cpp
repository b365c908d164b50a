// Community mining on the LiveJournal social-network analogue, written
// against the plan API: record `kcore(k) |> cc`, then lower it once. The
// executor partitions/builds each graph view a single time through the
// artifact cache, and k-core's survivor set is carried into CC as its
// initial frontier — CC then labels the communities of the dense core
// without ever scanning the peeled-away fringe.
//
//   ./community_kcore [--machines=16] [--scale=0.2] [--k=8]
#include <iostream>
#include <unordered_set>

#include "lazygraph.hpp"

using namespace lazygraph;

int main(int argc, char** argv) try {
  const Options opts(argc, argv, {"k", "machines", "scale"});
  const auto machines =
      static_cast<machine_t>(opts.get_int("machines", 16));
  const double scale = opts.get_double("scale", 0.2);
  const auto k = static_cast<std::uint32_t>(opts.get_int("k", 8));

  // The executor derives the symmetrized view k-core and CC need by itself;
  // the example hands it the raw directed graph.
  const Graph g =
      datasets::make(datasets::spec_by_name("livejournal-like"), scale);
  std::cout << "social network: " << g.num_vertices() << " members, "
            << g.num_edges() << " friendships\n";

  plan::Pipeline pipe;
  pipe.kcore(k).cc();
  std::cout << "pipeline: " << pipe.to_string() << "\n\n";

  plan::Executor ex(g, machines,
                    {.kind = partition::CutKind::kCoordinated, .seed = 11},
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
           "traffic(MB)"});
  for (const auto& r : res.stages) {
    t.add_row({r.stage, Table::num(r.scope_size),
               Table::num(r.carried_frontier), Table::num(r.sim_seconds, 4),
               Table::num(r.global_syncs),
               Table::num(static_cast<double>(r.network_bytes) / 1e6, 3)});
  }
  t.print(std::cout);

  const auto& cores = res.data_as<algos::KCore>(0);
  const auto& labels = res.data_as<algos::ConnectedComponents>(1);
  std::size_t core_size = 0;
  std::unordered_set<vid_t> communities;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (cores[v].deleted) continue;
    ++core_size;
    communities.insert(labels[v].label);
  }
  std::cout << "\n" << k << "-core: " << core_size << " of "
            << g.num_vertices() << " members ("
            << Table::num(100.0 * static_cast<double>(core_size) /
                              static_cast<double>(g.num_vertices()),
                          1)
            << "%) in " << communities.size() << " communities\n";

  // Verify the composed lowering: k-core against sequential peeling, and
  // every stage bit-identical to the per-stage reference lowering.
  const auto expect = reference::kcore(g.symmetrized(), k);
  std::size_t mismatches = 0;
  for (vid_t v = 0; v < g.num_vertices(); ++v) {
    if (!cores[v].deleted != expect[v]) ++mismatches;
  }
  plan::Executor ref(g, machines,
                     {.kind = partition::CutKind::kCoordinated, .seed = 11},
                     nullptr);
  const auto seq = ref.run(pipe, plan::sequential_baseline({}));
  bool identical = seq.converged;
  for (std::size_t i = 0; identical && i < res.outcomes.size(); ++i) {
    identical = res.outcomes[i].digest == seq.outcomes[i].digest;
  }
  std::cout << (mismatches == 0 ? "verified against sequential peeling\n"
                                : "MISMATCH vs peeling!\n");
  std::cout << (identical ? "composed lowering bit-identical to sequential\n"
                          : "MISMATCH vs sequential lowering!\n");
  return mismatches == 0 && identical ? 0 : 1;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
