// paper-matrix, the first part of matrix-serve: the paper's Fig. 9-11
// cells. {k-core, pagerank, sssp, cc} x {roadnetca, webgoogle, livejournal,
// twitter}-like x {sync, lazy-block} on 48 simulated machines, with the
// compute calibration and lazy-only edge split of
// bench/experiment_matrix.cpp. The datasets span lambda from about 1.2
// (road) to 7 (social), which is what the speedup claim depends on.
#include <algorithm>
#include <memory>

#include "bench.hpp"

namespace lazybench {

namespace {

constexpr machine_t kMachines = 48;
constexpr double kScale = 0.25;
constexpr double kPrTol = 1e-3;
constexpr double kSplitterTExtra = 0.02;

enum class Algo { kKCore, kPageRank, kSSSP, kCC };
constexpr Algo kAlgos[] = {Algo::kKCore, Algo::kPageRank, Algo::kSSSP,
                           Algo::kCC};
const char* name_of(Algo a) {
  switch (a) {
    case Algo::kKCore: return "kcore";
    case Algo::kPageRank: return "pagerank";
    case Algo::kSSSP: return "sssp";
    case Algo::kCC: return "cc";
  }
  return "?";
}
bool symmetric(Algo a) { return a == Algo::kKCore || a == Algo::kCC; }

constexpr engine::EngineKind kEngines[] = {engine::EngineKind::kSync,
                                           engine::EngineKind::kLazyBlock};
const char* short_name(engine::EngineKind k) {
  return k == engine::EngineKind::kSync ? "sync" : "lazy_block";
}

// One graph view (plain or symmetrized) of a dataset, set up for both
// engines: the eager baseline runs the plain vertex cut, lazy-block the
// cut with the parallel-edges split.
struct View {
  const Graph* g = nullptr;
  sim::NetworkModelConfig net;
  std::unique_ptr<partition::DistributedGraph> dg_sync;
  std::unique_ptr<partition::DistributedGraph> dg_lazy;
};

struct Dataset {
  const datasets::DatasetSpec* spec = nullptr;
  Graph g;
  Graph sym;
  View plain, symv;
  View& view(bool s) { return s ? symv : plain; }
};

// Each analogue edge stands for k edges of the paper's full-size input:
// compute slows by k and wire volume grows by k, so the compute to
// communication balance matches the paper's runs.
sim::NetworkModelConfig calibrated(const datasets::DatasetSpec& spec,
                                   const Graph& g) {
  sim::NetworkModelConfig net;
  const double k = spec.paper_edges * 1e6 / static_cast<double>(g.num_edges());
  net.teps /= k;
  net.volume_scale = k;
  return net;
}

struct SetupTimes {
  double symmetrize = 0, assign = 0, split = 0, build = 0;
  double total() const { return symmetrize + assign + split + build; }
};

// Symmetrize, partition, split and build every view of every dataset.
SetupTimes set_up(std::vector<Dataset>& ds, std::uint64_t pseed,
                  Spans& spans) {
  SetupTimes t;
  for (Dataset& d : ds) {
    const std::string tag = d.spec->name;
    t.symmetrize += timed(spans, "graph", "symmetrized/" + tag,
                          [&] { d.sym = d.g.symmetrized(); });
    for (const bool s : {false, true}) {
      View& v = d.view(s);
      v.g = s ? &d.sym : &d.g;
      v.net = calibrated(*d.spec, *v.g);
      const partition::PartitionOptions popts{
          .kind = partition::CutKind::kCoordinated,
          .seed = pseed,
          .threads = kClusterThreads};
      partition::Assignment asg;
      t.assign += timed(spans, "partition", "assign_edges/" + tag, [&] {
        asg = partition::assign_edges(*v.g, kMachines, popts);
      });
      std::vector<std::uint64_t> split;
      t.split += timed(spans, "partition", "select_split_edges/" + tag, [&] {
        split = partition::select_split_edges(
            *v.g, kMachines,
            {.enabled = true, .t_extra = kSplitterTExtra, .teps = v.net.teps});
      });
      t.build += timed(spans, "partition", "build/" + tag, [&] {
        v.dg_sync = std::make_unique<partition::DistributedGraph>(
            partition::DistributedGraph::build(*v.g, kMachines, asg, {},
                                               kClusterThreads));
        v.dg_lazy = std::make_unique<partition::DistributedGraph>(
            partition::DistributedGraph::build(*v.g, kMachines, asg, split,
                                               kClusterThreads));
      });
    }
  }
  return t;
}

std::uint32_t kcore_k(const Graph& sym) {
  return std::max<std::uint32_t>(
      3, static_cast<std::uint32_t>(sym.edge_vertex_ratio() / 2.0));
}

// Reference outputs, computed on first use outside every timed region.
struct References {
  std::map<std::pair<int, std::size_t>, std::vector<double>> real;
  std::map<std::pair<int, std::size_t>, std::vector<vid_t>> ids;
  std::map<std::size_t, std::vector<bool>> core;
};

struct Cell {
  Algo algo;
  std::size_t dataset;
  engine::EngineKind kind;
  std::string name;
  std::vector<double> host[3] = {};  // per mode
  std::vector<double> cpu;            // untraced mode
  bool have_metrics = false;
  sim::SimMetrics metrics = {};
  std::uint64_t supersteps = 0;
  sim::PerfReport report = {};  // from the first traced pass
  bool have_report = false;
};

enum Mode { kUntraced = 0, kTraced = 1, kSerial = 2 };

class Matrix {
 public:
  Matrix(Run& run) : run_(run) {}

  void go();

 private:
  void run_pass(Mode mode, bool record);
  void run_one(Cell& c, Mode mode, bool record);
  template <class P, class Check>
  void run_cell(Cell& c, Mode mode, bool record, const P& prog, Check check);

  Run& run_;
  std::vector<Dataset> ds_;
  std::vector<Cell> cells_;
  References refs_;
};

void Matrix::go() {
  Result& res = run_.result;
  const std::uint64_t seed = run_.args.seed;
  for (const char* name : {"roadnetca-like", "webgoogle-like",
                           "livejournal-like", "twitter-like"}) {
    Dataset d;
    d.spec = &datasets::spec_by_name(name);
    d.g = datasets::make(*d.spec, kScale);
    run_.note(std::string("hash.") + name) =
        std::to_string(d.g.content_hash());
    res.layer["graph.edges"] += static_cast<double>(d.g.num_edges());
    ds_.push_back(std::move(d));
  }
  const std::uint64_t pseed = derived_seed(seed);
  Spans off;
  set_up(ds_, pseed, off);  // warm-up: fills the allocator and page tables

  for (const Algo a : kAlgos) {
    for (std::size_t d = 0; d < ds_.size(); ++d) {
      for (const engine::EngineKind k : kEngines) {
        cells_.push_back({a, d, k,
                          std::string(short_name(k)) + "/" + name_of(a) + "/" +
                              ds_[d].spec->name});
      }
    }
  }
  run_pass(kUntraced, false);  // warm-up pass, untimed

  // Set-up: median of repeats, each from scratch.
  std::vector<double> setup;
  std::vector<SetupTimes> parts;
  for (int r = 0; r < 3; ++r) {
    parts.push_back(set_up(ds_, pseed, run_.pass_spans));
    setup.push_back(parts.back().total());
    run_.close_pass("setup");
  }

  // Solve: whole passes until the window closes; traced runs rotate the
  // untraced, traced and 1-thread modes pass by pass. Each figure of a cell
  // is the median of its repeats.
  measure(run_, run_.args.trace ? 3 : 1,
          [&](int m) { run_pass(static_cast<Mode>(m), true); });

  auto& L = res.layer;
  for (const Dataset& d : ds_) {
    L["_lambda_sum"] += d.plain.dg_sync->replication_factor();
    L["_lambda_n"] += 1;
    run_.note(std::string("lambda.") + d.spec->name) =
        std::to_string(d.plain.dg_sync->replication_factor());
  }

  if (!run_.args.trace) {
    double solve = 0, sim = 0;
    std::vector<double> speedup, syncs, traffic;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Cell& c = cells_[i];
      note_cell(res, c.name, c.metrics.sim_seconds(),
                median(c.host[kUntraced]), median(c.cpu));
      solve += median(c.cpu);
      sim += c.metrics.sim_seconds();
      res.jobs.push_back(c.metrics.sim_seconds());
      if (c.kind == engine::EngineKind::kSync) {
        const Cell& lazy = cells_[i + 1];  // its lazy-block twin
        speedup.push_back(c.metrics.sim_seconds() /
                          lazy.metrics.sim_seconds());
        syncs.push_back(double(lazy.metrics.global_syncs) /
                        double(c.metrics.global_syncs));
        traffic.push_back(double(lazy.metrics.network_bytes) /
                          double(c.metrics.network_bytes));
      }
    }
    res.e2e["setup_s"] += median(setup);
    res.e2e["solve_s"] += solve;
    res.e2e["sim_s"] += sim;
    res.e2e["speedup_x"] = geomean(speedup);
    res.e2e["sync_ratio"] = geomean(syncs);
    res.e2e["traffic_ratio"] = geomean(traffic);
    return;
  }

  std::vector<double> sym, asg, spl, bld;
  for (const SetupTimes& t : parts) {
    sym.push_back(t.symmetrize);
    asg.push_back(t.assign);
    spl.push_back(t.split);
    bld.push_back(t.build);
  }
  L["graph.symmetrize_s"] += median(sym);
  L["partition.assign_s"] += median(asg);
  L["partition.split_s"] += median(spl);
  L["partition.build_s"] += median(bld);
  for (const Cell& c : cells_) {
    const std::string e = short_name(c.kind);
    const double t = median(c.host[kTraced]);
    L["engine." + e + "_s"] += t;
    L["_traced_s"] += t;
    L["_untraced_s"] += median(c.host[kUntraced]);
    L["_" + e + "_4t_s"] += median(c.host[kUntraced]);
    L["_" + e + "_1t_s"] += median(c.host[kSerial]);
    add_sim_counters(res, c.metrics);
    add_engine_counters(res, c.metrics, c.supersteps);
    add_phase_seconds(res, c.report);
  }
}

void Matrix::run_pass(Mode mode, bool record) {
  for (Cell& c : cells_) {
    run_one(c, mode, record);
  }
  if (mode == kTraced && record) run_.close_pass("solve");
}

void Matrix::run_one(Cell& c, Mode mode, bool record) {
  {
    Dataset& d = ds_[c.dataset];
    switch (c.algo) {
      case Algo::kPageRank:
        run_cell(c, mode, record, algos::PageRankDelta{.tol = kPrTol},
                 [&](const auto& r) {
                   auto& ref = refs_.real[{int(c.algo), c.dataset}];
                   if (ref.empty()) ref = reference::pagerank(d.g, 1e-12, 20'000);
                   return ranks_close(r.data, ref, kPrTol);
                 });
        break;
      case Algo::kSSSP: {
        const vid_t src = max_out_degree_vertex(d.g);
        run_cell(c, mode, record, algos::SSSP{.source = src},
                 [&](const auto& r) {
                   auto& ref = refs_.real[{int(c.algo), c.dataset}];
                   if (ref.empty()) ref = reference::sssp(d.g, src);
                   for (std::size_t v = 0; v < ref.size(); ++v) {
                     if (serve::bits_of(r.data[v].dist) !=
                         serve::bits_of(ref[v])) {
                       return false;
                     }
                   }
                   return r.data.size() == ref.size();
                 });
        break;
      }
      case Algo::kCC:
        run_cell(c, mode, record, algos::ConnectedComponents{},
                 [&](const auto& r) {
                   auto& ref = refs_.ids[{int(c.algo), c.dataset}];
                   if (ref.empty()) {
                     // Min-label propagation labels each component with
                     // its smallest vertex id.
                     const auto root = reference::connected_components(d.sym);
                     std::vector<vid_t> low(root.size(), kInvalidVid);
                     for (vid_t v = 0; v < root.size(); ++v) {
                       low[root[v]] = std::min(low[root[v]], v);
                     }
                     ref.resize(root.size());
                     for (vid_t v = 0; v < root.size(); ++v) {
                       ref[v] = low[root[v]];
                     }
                   }
                   for (std::size_t v = 0; v < ref.size(); ++v) {
                     if (r.data[v].label != ref[v]) return false;
                   }
                   return r.data.size() == ref.size();
                 });
        break;
      case Algo::kKCore: {
        const std::uint32_t k = kcore_k(d.sym);
        run_cell(c, mode, record, algos::KCore{.k = k}, [&](const auto& r) {
          auto& ref = refs_.core[c.dataset];
          if (ref.empty()) ref = reference::kcore(d.sym, k);
          for (std::size_t v = 0; v < ref.size(); ++v) {
            if (r.data[v].deleted == ref[v]) return false;  // ref: in core
          }
          return r.data.size() == ref.size();
        });
        break;
      }
    }
  }
}

template <class P, class Check>
void Matrix::run_cell(Cell& c, Mode mode, bool record, const P& prog,
                      Check check) {
  Dataset& d = ds_[c.dataset];
  View& v = d.view(symmetric(c.algo));
  const bool lazy = c.kind == engine::EngineKind::kLazyBlock;
  sim::Cluster cluster({.machines = kMachines,
                        .net = v.net,
                        .threads = mode == kSerial ? 1 : kClusterThreads});
  sim::Tracer tracer;
  engine::RunConfig cfg{.kind = c.kind,
                        .graph_ev_ratio = v.g->edge_vertex_ratio(),
                        .tracer = mode == kTraced ? &tracer : nullptr};
  Spans off;
  Spans& spans = mode == kTraced ? run_.pass_spans : off;
  engine::RunResult<P> r;
  double cpu = 0;
  const auto& dg = lazy ? *v.dg_lazy : *v.dg_sync;
  const double t = timed(
      spans, "engine", "run/" + c.name,
      [&] { r = engine::run(cfg, dg, prog, cluster); }, &cpu);
  if (!record) return;
  c.host[mode].push_back(t);
  if (mode == kUntraced) c.cpu.push_back(cpu);
  const bool same =
      !c.have_metrics ||
      (r.metrics.sim_seconds() == c.metrics.sim_seconds() &&
       r.metrics.global_syncs == c.metrics.global_syncs &&
       r.metrics.network_bytes == c.metrics.network_bytes &&
       r.supersteps == c.supersteps);
  run_.result.check(r.converged && same && check(r),
                    c.name + (mode == kSerial ? " (1 thread)" : ""));
  if (!c.have_metrics) {
    c.metrics = r.metrics;
    c.supersteps = r.supersteps;
    c.have_metrics = true;
  }
  if (mode == kTraced && !c.have_report) {
    c.report = sim::build_perf_report(tracer, r.metrics, t);
    c.have_report = true;
  }
}

}  // namespace

void run_paper_matrix(Run& run) { Matrix(run).go(); }

}  // namespace lazybench
