// Reproduces Fig. 8(b): communication time versus traffic volume for the two
// delta-exchange patterns. Prints the paper's fitted curves
//   t_a2a = 0.00029*comm + 0.044
//   t_m2m = -6e-7*comm^2 + 0.00045*comm + 0.003
// over a volume sweep (showing the crossover the dynamic switch exploits),
// then validates the switch on live exchanges: forced-a2a vs forced-m2m vs
// adaptive on PageRank.
#include <iostream>

#include "experiment_matrix.hpp"

using namespace lazygraph;
using bench::Algo;

int main(int argc, char** argv) try {
  const Options opts(argc, argv, {"machines", "scale"});
  const sim::NetworkModel net{};

  std::cout << "Fig. 8(b): fitted communication time vs traffic\n\n";
  // For one logical delta exchange, all-to-all ships every replica's delta
  // to every other replica while mirrors-to-master aggregates through the
  // master, so a2a puts ~nd(R-1)/(nd+R-2) times more bytes on the wire. The
  // table sweeps the logical (m2m) volume with a representative 2.5x
  // all-to-all amplification, showing the crossover the dynamic switch
  // exploits: a2a wins small exchanges (single phase), m2m wins large ones
  // (smaller volume).
  constexpr double kA2aAmplification = 2.5;
  Table curve(
      {"logical(MB)", "wire_a2a(MB)", "t_a2a(s)", "t_m2m(s)", "faster"});
  const std::vector<double> volumes = {0.5, 1,  2,  5,  8,   12,  20,
                                       35,  50, 75, 100, 150, 250, 400};
  for (const double mb : volumes) {
    const double a = net.all_to_all_seconds(mb * kA2aAmplification);
    const double m = net.mirrors_to_master_seconds(mb);
    curve.add_row({Table::num(mb, 1), Table::num(mb * kA2aAmplification, 1),
                   Table::num(a, 4), Table::num(m, 4),
                   a <= m ? "all-to-all" : "mirrors-to-master"});
  }
  curve.print(std::cout);

  // Live validation: run PageRank with each policy and compare.
  bench::ExperimentConfig cfg;
  cfg.machines = static_cast<machine_t>(opts.get_int("machines", 48));
  cfg.dataset_scale = opts.get_double("scale", 1.0);
  std::cout << "\nDynamic switching on PageRank (lazy engine):\n\n";
  Table live({"graph", "forced-a2a(s)", "forced-m2m(s)", "adaptive(s)",
              "adaptive-a2a-count", "adaptive-m2m-count"});
  for (const auto& name :
       {"roadusa-like", "webgoogle-like", "livejournal-like"}) {
    const auto& spec = datasets::spec_by_name(name);
    cfg.comm_policy = engine::CommModePolicy::kForceAllToAll;
    const auto a2a =
        bench::run_cell(Algo::kPageRank, spec, engine::EngineKind::kLazyBlock, cfg);
    cfg.comm_policy = engine::CommModePolicy::kForceMirrorsToMaster;
    const auto m2m =
        bench::run_cell(Algo::kPageRank, spec, engine::EngineKind::kLazyBlock, cfg);
    cfg.comm_policy = engine::CommModePolicy::kAdaptive;
    const auto ad =
        bench::run_cell(Algo::kPageRank, spec, engine::EngineKind::kLazyBlock, cfg);
    live.add_row({name, Table::num(a2a.sim_seconds, 3),
                  Table::num(m2m.sim_seconds, 3), Table::num(ad.sim_seconds, 3),
                  Table::num(ad.a2a_exchanges), Table::num(ad.m2m_exchanges)});
  }
  live.print(std::cout);
  std::cout << "\n(adaptive should track the faster forced mode per "
               "exchange; small volumes favour all-to-all, large favour "
               "mirrors-to-master)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 1;
}
