#include <time.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"

namespace lazybench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value: " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace 0|1");
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out_dir = v;
    } else if (flag == "--describe") {
      a.describe = v;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!a.selftest && a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

int Spans::open(const std::string& layer, const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({layer, name, now_seconds(), 0.0,
                    stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  if (id < 0) return;
  spans_[id].end = now_seconds();
  stack_.pop_back();
}

std::map<std::string, Spans::LayerTime> Spans::layer_times() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[s.parent] += s.end - s.start;
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& t = out[s.layer];
    t.self += (s.end - s.start) - child[i];
    // A span nested in a span of its own layer is already in the total.
    bool nested = false;
    for (int p = s.parent; p >= 0; p = spans_[p].parent) {
      if (spans_[p].layer == s.layer) nested = true;
    }
    if (!nested) t.total += s.end - s.start;
  }
  return out;
}

void Spans::attach_to_last(const std::string& layer, const std::string& name,
                           double seconds) {
  if (!enabled_) return;
  int top = static_cast<int>(spans_.size()) - 1;
  while (top >= 0 && spans_[top].parent >= 0) --top;
  if (top < 0) throw std::logic_error("attach_to_last: no span to attach to");
  const double start = spans_[top].start;
  spans_.push_back({layer, name, start, start + seconds, top});
}

void Spans::take(Spans& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span& s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
  other.spans_.clear();
  other.stack_.clear();
}

void LayerSamples::add(const std::string& group, const Spans& pass) {
  if (!pass.enabled()) return;
  auto& g = samples_[group];
  for (const auto& [layer, t] : pass.layer_times()) g[layer].push_back(t);
}

std::map<std::string, Spans::LayerTime> LayerSamples::per_pass() const {
  std::map<std::string, Spans::LayerTime> out;
  for (const auto& [group, layers] : samples_) {
    for (const auto& [layer, ts] : layers) {
      std::vector<double> self, total;
      for (const auto& t : ts) {
        self.push_back(t.self);
        total.push_back(t.total);
      }
      out[layer].self += median(self);
      out[layer].total += median(total);
    }
  }
  return out;
}

double timed(Spans& spans, const char* layer, const std::string& name,
             const std::function<void()>& body, double* cpu) {
  const int id = spans.open(layer, name);
  const double c0 = cpu ? cpu_seconds() : 0.0;
  const double t0 = now_seconds();
  body();
  const double dt = now_seconds() - t0;
  if (cpu) *cpu = cpu_seconds() - c0;
  spans.close(id);
  return dt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) throw std::domain_error("geomean of a non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >=
        static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 0.0;
}

vid_t max_out_degree_vertex(const Graph& g) {
  const auto& out = g.out_degrees();
  return static_cast<vid_t>(std::max_element(out.begin(), out.end()) -
                            out.begin());
}

std::vector<double> fifo_latencies(const std::vector<double>& durations) {
  std::vector<double> out;
  double t = 0.0;
  for (const double d : durations) out.push_back(t += d);
  return out;
}

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double mb(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"solve_s", "s"},
      {"sim_s", "sim-s"},        {"speedup_x", "ratio"},
      {"sync_ratio", "ratio"},   {"traffic_ratio", "ratio"},
      {"qps_host", "q/s"},       {"lat_p50_vs", "vs"},
      {"lat_p99_vs", "vs"},      {"peak_rss_mb", "MB"},
      {"ok_frac", "ratio"},
  };
  return defs;
}

namespace {
std::vector<MetricDef> make_layer_defs() {
  std::vector<MetricDef> d = {
      {"graph.parse_s", "s"},
      {"graph.symmetrize_s", "s"},
      {"graph.edges", "count"},
      {"partition.assign_s", "s"},
      {"partition.split_s", "s"},
      {"partition.build_s", "s"},
      {"partition.lambda", "ratio"},
      {"partition.cache_hits", "count"},
      {"partition.cache_misses", "count"},
      {"engine.sync_s", "s"},
      {"engine.lazy_block_s", "s"},
      {"engine.async_s", "s"},
      {"engine.lazy_vertex_s", "s"},
      {"engine.sync_par_x", "ratio"},
      {"engine.lazy_block_par_x", "ratio"},
      {"engine.supersteps", "count"},
      {"engine.applies", "count"},
      {"engine.edge_traversals", "count"},
      {"engine.scan_yield", "ratio"},
      {"engine.pull_share", "ratio"},
      {"engine.wire_ratio", "ratio"},
      {"engine.state_mb", "MB"},
      {"sim.global_syncs", "count"},
      {"sim.network_mb", "MB"},
      {"sim.messages", "count"},
      {"sim.compute_s", "sim-s"},
      {"sim.comm_s", "sim-s"},
      {"sim.barrier_s", "sim-s"},
      {"sim.overhead_s", "sim-s"},
      {"sim.a2a", "count"},
      {"sim.m2m", "count"},
  };
  // One phase per engine span kind (the setup-only kinds start at kIngest).
  for (int k = 0; k < static_cast<int>(sim::SpanKind::kIngest); ++k) {
    d.push_back({std::string("sim.phase.") +
                     sim::to_string(static_cast<sim::SpanKind>(k)) + "_s",
                 "sim-s"});
  }
  const std::vector<MetricDef> rest = {
      {"util.pool_dispatch_us", "us"},
      {"recovery.kills", "count"},
      {"recovery.guard_mb", "MB"},
      {"recovery.rebuild_mb", "MB"},
      {"recovery.host_s", "s"},
      {"recovery.sim_s", "sim-s"},
      {"plan.run_s", "s"},
      {"plan.engine_runs", "count"},
      {"plan.partitions", "count"},
      {"plan.builds", "count"},
      {"serve.self_s", "s"},
      {"serve.batches", "count"},
      {"serve.lanes_per_batch", "count"},
      {"serve.batch_p50_ms", "ms"},
      {"serve.batch_p90_ms", "ms"},
      {"serve.queue_p99_vs", "vs"},
      {"serve.qps_vs", "q/vs"},
      {"trace.overhead", "ratio"},
  };
  d.insert(d.end(), rest.begin(), rest.end());
  return d;
}
}  // namespace

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = make_layer_defs();
  return defs;
}

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 10) std::cerr << "lazybench: check failed: " << what << "\n";
}

double Result::ok_frac() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(attempted - failed) /
                              static_cast<double>(attempted);
}

int measure(Run& run, int modes, const std::function<void(int mode)>& pass) {
  const double deadline = now_seconds() + run.part_seconds;
  const int min_rotations = modes == 1 ? 3 : 2;
  int rotations = 0;
  do {
    for (int m = 0; m < modes; ++m) pass(m);
    ++rotations;
  } while (rotations < min_rotations || now_seconds() < deadline);
  run.note("passes") = std::to_string(rotations);
  return rotations;
}

std::uint64_t derived_seed(std::uint64_t seed) {
  // splitmix64 finalizer: nearby --seed values give unrelated choices.
  std::uint64_t h = seed + 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

void note_cell(Result& r, const std::string& name, double sim_s,
               double host_s, double cpu_s) {
  r.manifest["cell." + name] = "sim_s=" + std::to_string(sim_s) +
                               " host_s=" + std::to_string(host_s) +
                               " cpu_s=" + std::to_string(cpu_s);
}

void add_sim_counters(Result& r, const sim::SimMetrics& m) {
  auto& L = r.layer;
  L["sim.global_syncs"] += static_cast<double>(m.global_syncs);
  L["sim.network_mb"] += m.network_mb();
  L["sim.messages"] += static_cast<double>(m.network_messages);
  L["sim.compute_s"] += m.compute_seconds;
  L["sim.comm_s"] += m.comm_seconds;
  L["sim.barrier_s"] += m.barrier_seconds;
  L["sim.overhead_s"] += m.overhead_seconds;
  L["sim.a2a"] += static_cast<double>(m.a2a_exchanges);
  L["sim.m2m"] += static_cast<double>(m.m2m_exchanges);
}

void add_phase_seconds(Result& r, const sim::PerfReport& rep) {
  for (const auto& ph : rep.phases) {
    r.layer[std::string("sim.phase.") + sim::to_string(ph.kind) + "_s"] +=
        ph.seconds;
  }
}

void add_engine_counters(Result& r, const sim::SimMetrics& m,
                         std::uint64_t supersteps) {
  auto& L = r.layer;
  L["engine.supersteps"] += static_cast<double>(supersteps);
  L["engine.applies"] += static_cast<double>(m.applies);
  L["engine.edge_traversals"] += static_cast<double>(m.edge_traversals);
  L["engine.state_mb"] = std::max(L["engine.state_mb"], mb(m.state_bytes));
  // Sums behind the ratios; removed again by finish_engine_ratios.
  L["_scanned"] += static_cast<double>(m.sweep_scanned);
  L["_pushed"] += static_cast<double>(m.sweep_edges_pushed);
  L["_pulled"] += static_cast<double>(m.sweep_edges_pulled);
  L["_wire"] += static_cast<double>(m.exchange_bytes_wire);
  L["_raw"] += static_cast<double>(m.exchange_bytes_raw);
}

void finish_layers(Result& r) {
  auto& L = r.layer;
  L["engine.scan_yield"] = ratio(L["engine.applies"], L["_scanned"]);
  L["engine.pull_share"] = ratio(L["_pulled"], L["_pushed"] + L["_pulled"]);
  L["engine.wire_ratio"] = ratio(L["_wire"], L["_raw"]);
  L["partition.lambda"] = ratio(L["_lambda_sum"], L["_lambda_n"]);
  L["engine.sync_par_x"] = ratio(L["_sync_1t_s"], L["_sync_4t_s"]);
  L["engine.lazy_block_par_x"] =
      ratio(L["_lazy_block_1t_s"], L["_lazy_block_4t_s"]);
  L["trace.overhead"] = ratio(L["_traced_s"], L["_untraced_s"]) - 1.0;
  std::erase_if(L, [](const auto& kv) { return kv.first[0] == '_'; });
}

void finish_e2e(Result& r) {
  auto& E = r.e2e;
  for (const char* k : {"speedup_x", "sync_ratio", "traffic_ratio"}) {
    E.try_emplace(k, 1.0);
  }
  if (E.count("qps_host")) return;  // a part served a query stream
  // All jobs arrive at virtual time 0 and run one after another, so with
  // fewer than 100 of them the nearest-rank p99 is the last completion.
  const std::vector<double> lat = fifo_latencies(r.jobs);
  E["qps_host"] = ratio(double(r.jobs.size()), E["solve_s"]);
  E["lat_p50_vs"] = percentile(lat, 50);
  E["lat_p99_vs"] = percentile(lat, 99);
  r.manifest["lat_samples"] = std::to_string(r.jobs.size());
}

double pool_dispatch_us(Run& run) {
  sim::Cluster cluster({.machines = 48, .threads = kClusterThreads});
  constexpr int kCalls = 2000;
  std::vector<double> per_call;
  timed(run.pass_spans, "util", "pool_dispatch_probe", [&] {
    for (int block = 0; block < 9; ++block) {
      const double t0 = now_seconds();
      for (int i = 0; i < kCalls; ++i) {
        cluster.parallel_machines([](machine_t) {});
      }
      per_call.push_back((now_seconds() - t0) / kCalls * 1e6);
    }
  });
  run.close_pass("util");
  return median(per_call);
}

bool ranks_close(const std::vector<algos::PageRankDelta::VData>& got,
                 const std::vector<double>& want, double tol) {
  // Converged delta-PageRank keeps a pending delta |p_u| <= tol at every
  // vertex, so rank = 0.15 + 0.85 P^T (rank - p). The error e = rank - x
  // then solves e = 0.85 P^T (e - p), hence |e| <= tol * (x / 0.15 - 1),
  // where x is the exact PageRank. The 1e-9 relative term covers rounding.
  if (got.size() != want.size()) return false;
  for (std::size_t v = 0; v < got.size(); ++v) {
    const double bound =
        tol * (want[v] / 0.15 - 1.0) + 1e-9 * std::abs(want[v]) + 1e-12;
    if (!(std::abs(got[v].rank - want[v]) <= bound)) return false;
  }
  return true;
}

bool same_bits(const std::vector<algos::PageRankDelta::VData>& a,
               const std::vector<algos::PageRankDelta::VData>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (serve::bits_of(a[v].rank) != serve::bits_of(b[v].rank) ||
        serve::bits_of(a[v].pending_delta) !=
            serve::bits_of(b[v].pending_delta)) {
      return false;
    }
  }
  return true;
}

bool same_bits(const std::vector<algos::SSSP::VData>& a,
               const std::vector<algos::SSSP::VData>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (serve::bits_of(a[v].dist) != serve::bits_of(b[v].dist)) return false;
  }
  return true;
}

bool same_digests(const plan::PipelineResult& a,
                  const plan::PipelineResult& b) {
  if (a.outcomes.size() != b.outcomes.size()) return false;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    if (a.outcomes[i].digest != b.outcomes[i].digest) return false;
  }
  return true;
}

}  // namespace lazybench
