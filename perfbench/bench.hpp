// Shared harness of lazybench: argument parsing, host clocks,
// the span recorder of traced runs, the metric helpers, and the result
// record every workload fills.
//
// lazybench links the lazygraph library and measures it from outside: it
// times calls to each module's public functions and reads the counters the
// modules already publish. No tracing code lives in the library.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <string>
#include <vector>

#include "lazygraph.hpp"

namespace lazybench {

using namespace lazygraph;

/// Cluster pool size every workload uses (the reference host's nproc), so
/// the numbers do not depend on the machine the benchmark lands on.
constexpr std::size_t kClusterThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_results";
  std::string describe = "unknown";
  bool selftest = false;
};

Args parse_args(int argc, char** argv);

// ---------------------------------------------------------------- clocks

double now_seconds();
/// CPU seconds of the whole process, every thread, user and system. The
/// kernel leaves out time the hypervisor steals from a vCPU (paravirtual
/// steal accounting), and pool threads that wait at a barrier sleep, so
/// this counts the work the process did and the cost of its parallel
/// dispatch, but not the wait for a stolen vCPU.
double cpu_seconds();

/// Records one span per public call lazybench makes into the library:
/// layer, name, host start/end and the enclosing span. Spans stay in memory
/// and are written once the run ends. Disabled recorders store nothing.
class Spans {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };
  struct LayerTime {
    double self = 0.0;
    double total = 0.0;
  };

  explicit Spans(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  int open(const std::string& layer, const std::string& name);
  void close(int id);
  const std::vector<Span>& spans() const { return spans_; }
  /// Adds a child of `seconds` to the last outermost span: time a layer
  /// reports for work inside the call (e.g. engine seconds inside a serve
  /// call), so the outer layer's self time excludes it.
  void attach_to_last(const std::string& layer, const std::string& name,
                      double seconds);
  /// Moves `other`'s spans to the end of this recorder (parents re-based).
  void take(Spans& other);
  /// Host seconds per layer: `total` sums the layer's outermost spans,
  /// `self` subtracts the time its direct children cover.
  std::map<std::string, LayerTime> layer_times() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Runs `body` and returns its host seconds; records a span when `spans`
/// is enabled and stores the CPU seconds it took in `*cpu` when given.
/// Every timed call in lazybench goes through here, so traced and untraced
/// runs time the same region.
double timed(Spans& spans, const char* layer, const std::string& name,
             const std::function<void()>& body, double* cpu = nullptr);

// ---------------------------------------------------------------- helpers

double median(std::vector<double> v);
double geomean(const std::vector<double>& v);
/// Nearest-rank percentile (0 < p <= 100) of `v`.
double percentile(std::vector<double> v, double p);
/// The highest of the usual tail percentiles (99.9, 99, 95, 90, 75, 50)
/// that still has at least `min_beyond` samples above it among `n`;
/// 0 when even the median has fewer.
double tail_percentile(std::size_t n, std::size_t min_beyond = 10);
/// Deterministic traversal source: the highest-out-degree vertex.
vid_t max_out_degree_vertex(const Graph& g);
/// Latencies of jobs that all arrive at virtual time 0 and run one after
/// another in the given order: job i completes at the sum of the first i+1
/// durations. The latency model of a workload without a query stream.
std::vector<double> fifo_latencies(const std::vector<double>& durations);
/// a / b, or 0 when b is 0.
double ratio(double a, double b);
double mb(std::uint64_t bytes);

// ---------------------------------------------------------------- results

/// Every end-to-end and per-layer metric, by name, in BENCHMARK.json order.
struct MetricDef {
  std::string name;
  std::string unit;
};
const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

/// What one run produces. Workloads fill `e2e` (untraced runs) or `layer`
/// (traced runs) by name; names they do not touch report 0 in `layer`.
struct Result {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Manifest entries (input hashes, counts), written to the result file
  /// beside the printed metrics.
  std::map<std::string, std::string> manifest;
  /// Simulated seconds of each engine run of a part without a query
  /// stream, in run order: the jobs of the FIFO latency model.
  std::vector<double> jobs;

  /// Counts one checked output; logs the first failures to stderr.
  void check(bool ok, const std::string& what);
  double ok_frac() const;
};

/// Per-layer host seconds of repeated passes: the median of each layer
/// over the passes of one group (a part's setup repeats or solve passes),
/// summed over groups, is the layer's cost of one pass of the workload.
class LayerSamples {
 public:
  void add(const std::string& group, const Spans& pass);
  std::map<std::string, Spans::LayerTime> per_pass() const;

 private:
  // group -> layer -> per-pass {self, total}
  std::map<std::string, std::map<std::string, std::vector<Spans::LayerTime>>>
      samples_;
};

/// Context handed to a part of a workload. A workload runs its parts one
/// after another on the same Run; each part adds to the shared result.
struct Run {
  explicit Run(Args a)
      : args(std::move(a)), spans(args.trace), pass_spans(args.trace) {}
  Args args;
  /// The part in progress and its share of --seconds.
  std::string part;
  double part_seconds = 0.0;
  Result result;
  /// Every span of a traced run, written out when the run ends.
  Spans spans;
  /// Spans of the traced pass in progress; close_pass files them.
  Spans pass_spans;
  LayerSamples layers;
  void close_pass(const std::string& group) {
    layers.add(part + "/" + group, pass_spans);
    spans.take(pass_spans);
  }
  /// A manifest entry of the part in progress.
  std::string& note(const std::string& key) {
    return result.manifest[part + "." + key];
  }
};

/// The measured region of a part: rotations of `modes` passes (mode 0
/// untraced; a traced run adds its other modes) until the part's seconds
/// have passed, at least three rotations untraced and two traced, so each
/// unit of work is timed several times. Returns the rotation count.
int measure(Run& run, int modes, const std::function<void(int mode)>& pass);

/// The random choice --seed drives, well mixed: the coordinated cut's seed
/// (and, in async-recovery, the machine that dies). The graphs are the
/// canonical dataset analogues (datasets::make's default seed), fixed like
/// the paper's inputs: with graphs drawn from --seed, a few power-law cells
/// swung sim_s by 20% between seeds.
std::uint64_t derived_seed(std::uint64_t seed);

/// Records one cell's simulated seconds and median host and CPU seconds in
/// the manifest, so a result file shows where the end-to-end sums come from.
void note_cell(Result& r, const std::string& name, double sim_s,
               double host_s, double cpu_s);

/// Adds sim.* per-layer counters summed over runs, and the phase seconds of
/// a traced engine run (sim.phase.<kind>_s).
void add_sim_counters(Result& r, const sim::SimMetrics& m);
void add_phase_seconds(Result& r, const sim::PerfReport& rep);
/// Adds engine.* work counters (supersteps, applies, ...) for one run; the
/// ratios are derived from the sums in finish_layers.
void add_engine_counters(Result& r, const sim::SimMetrics& m,
                         std::uint64_t supersteps);

/// Per-layer ratios are made from sums the parts add under names that start
/// with '_': the engine ratios, the mean replication factor
/// (_lambda_sum / _lambda_n), the *_par_x (_<engine>_1t_s / _<engine>_4t_s)
/// and trace.overhead (_traced_s / _untraced_s). finish_layers divides them
/// once every part has run and drops the sums.
void finish_layers(Result& r);
/// Metrics a workload's parts did not set: the Fig. 9-11 ratios read 1
/// without paper-matrix, and without a query stream the jobs are the
/// engine runs (qps_host = jobs per solve second, FIFO latencies).
void finish_e2e(Result& r);

/// Host µs per Cluster::parallel_machines call with an empty body on 48
/// machines and the benchmark's pool (median of repeated blocks).
double pool_dispatch_us(Run& run);

// ---------------------------------------------------------------- workloads

/// The parts. Each adds setup_s, solve_s and sim_s, sets the end-to-end
/// metrics only it can measure, and adds its per-layer figures.
void run_paper_matrix(Run& run);
void run_serve_zipf(Run& run);
void run_async_recovery(Run& run);
void run_file_pipeline(Run& run);

/// Self-test of the harness: corrupted outputs must lower ok_frac and the
/// metric helpers must return known values. Returns the process exit code.
int selftest();

// ---------------------------------------------------------------- checks

/// Delta-PageRank with scatter tolerance `tol` within its proven error
/// bound of the exact PageRank `want` (derivation in the definition).
bool ranks_close(const std::vector<algos::PageRankDelta::VData>& got,
                 const std::vector<double>& want, double tol);
/// Bit-identical converged states (value bits, never padding).
bool same_bits(const std::vector<algos::PageRankDelta::VData>& a,
               const std::vector<algos::PageRankDelta::VData>& b);
bool same_bits(const std::vector<algos::SSSP::VData>& a,
               const std::vector<algos::SSSP::VData>& b);
/// Equal per-stage digests of two pipeline lowerings.
bool same_digests(const plan::PipelineResult& a,
                  const plan::PipelineResult& b);

}  // namespace lazybench
