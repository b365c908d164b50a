// lazybench: the repository's end-to-end benchmark program.
//
//   lazybench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--describe <git describe>]
//   lazybench --selftest
//
// Prints one JSON object as the last line of standard output: correct,
// attempted, failed and the metrics (end-to-end with --trace 0, per-layer
// with --trace 1). The full result, with its run manifest and, for traced
// runs, the per-layer host times, sim phase shares and spans, goes to
// <out>/<workload>-seed<n>-trace<t>.json.
#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"

#ifndef LAZYBENCH_BUILD_TYPE
#define LAZYBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LAZYBENCH_COMPILER
#define LAZYBENCH_COMPILER "unknown"
#endif

namespace lazybench {
namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string read_first_line(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// Steal ticks of the aggregate cpu line of /proc/stat (8th counter).
long long steal_ticks() {
  std::istringstream is(read_first_line("/proc/stat"));
  std::string cpu;
  long long v = 0, steal = -1;
  is >> cpu;
  for (int i = 0; i < 8 && (is >> v); ++i) steal = v;
  return steal;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Part {
  const char* name;
  void (*body)(Run&);
};

// A workload is two parts run one after another, each measured for half of
// --seconds. matrix-serve is the load on the cluster pool: the bulk-
// synchronous engines and the batched engine runs of the query server.
// recovery-pipeline is host-serial: the Gauss-Seidel engines and plan's
// engine runs never use the pool.
void run_workload(Run& run) {
  const std::string& w = run.args.workload;
  std::vector<Part> parts;
  if (w == "matrix-serve") {
    parts = {{"paper-matrix", run_paper_matrix},
             {"serve-zipf", run_serve_zipf}};
  } else if (w == "recovery-pipeline") {
    parts = {{"async-recovery", run_async_recovery},
             {"file-pipeline", run_file_pipeline}};
  } else {
    throw std::invalid_argument("unknown workload: " + w);
  }
  for (const Part& p : parts) {
    run.part = p.name;
    run.part_seconds = run.args.seconds / static_cast<double>(parts.size());
    p.body(run);
  }
  if (run.args.trace) {
    run.part = "util";
    run.result.layer["util.pool_dispatch_us"] = pool_dispatch_us(run);
    finish_layers(run.result);
  } else {
    finish_e2e(run.result);
  }
}

// Per-layer host times, sim phase shares and spans of a traced run.
std::string trace_detail(const Run& run) {
  std::ostringstream os;
  os << "{\"layers\": {";
  bool first = true;
  for (const auto& [layer, t] : run.layers.per_pass()) {
    os << (first ? "" : ", ") << json_string(layer) << ": {\"self_s\": "
       << json_number(t.self) << ", \"total_s\": " << json_number(t.total)
       << "}";
    first = false;
  }
  double phase_total = 0;
  for (const auto& [name, v] : run.result.layer) {
    if (name.rfind("sim.phase.", 0) == 0) phase_total += v;
  }
  os << "}, \"sim_phase_share\": {";
  first = true;
  for (const auto& [name, v] : run.result.layer) {
    if (name.rfind("sim.phase.", 0) != 0) continue;
    os << (first ? "" : ", ") << json_string(name) << ": "
       << json_number(ratio(v, phase_total));
    first = false;
  }
  os << "}, \"trace_overhead\": "
     << json_number(run.result.layer.count("trace.overhead")
                        ? run.result.layer.at("trace.overhead")
                        : 0.0)
     << ", \"spans\": [";
  const auto& spans = run.spans.spans();
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << (i ? ", " : "") << "{\"layer\": " << json_string(s.layer)
       << ", \"name\": " << json_string(s.name)
       << ", \"start_s\": " << json_number(s.start - t0)
       << ", \"end_s\": " << json_number(s.end - t0)
       << ", \"parent\": " << s.parent << "}";
  }
  os << "]}";
  return os.str();
}

int bench_main(const Args& args) {
  Run run(args);
  Result& res = run.result;
  const std::string load0 = read_first_line("/proc/loadavg");
  const long long steal0 = steal_ticks();
  const double t0 = now_seconds();

  run_workload(run);

  const std::vector<MetricDef>* defs = nullptr;
  if (args.trace) {
    defs = &per_layer_defs();
  } else {
    res.e2e["peak_rss_mb"] = peak_rss_mb();
    res.e2e["ok_frac"] = res.ok_frac();
    defs = &end_to_end_defs();
  }
  const auto& values = args.trace ? res.layer : res.e2e;
  for (const auto& [name, v] : values) {
    bool known = false;
    for (const MetricDef& d : *defs) known = known || d.name == name;
    if (!known) throw std::logic_error("metric not in the table: " + name);
  }

  res.manifest["seed"] = std::to_string(args.seed);
  res.manifest["git_describe"] = args.describe;
  res.manifest["build_type"] = LAZYBENCH_BUILD_TYPE;
  res.manifest["compiler"] = LAZYBENCH_COMPILER;
  res.manifest["nproc"] = std::to_string(std::thread::hardware_concurrency());
  res.manifest["cluster_threads"] = std::to_string(kClusterThreads);
  res.manifest["loadavg_start"] = load0;
  res.manifest["loadavg_end"] = read_first_line("/proc/loadavg");
  res.manifest["steal_ticks"] = std::to_string(steal_ticks() - steal0);
  res.manifest["run_wall_s"] = json_number(now_seconds() - t0);

  std::ostringstream metrics;
  metrics << "{";
  for (std::size_t i = 0; i < defs->size(); ++i) {
    const MetricDef& d = (*defs)[i];
    const auto it = values.find(d.name);
    metrics << (i ? ", " : "") << json_string(d.name) << ": {\"value\": "
            << json_number(it == values.end() ? 0.0 : it->second)
            << ", \"unit\": " << json_string(d.unit) << "}";
  }
  metrics << "}";
  std::ostringstream line;
  line << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << res.attempted
       << ", \"failed\": " << res.failed
       << ", \"metrics\": " << metrics.str() << "}";

  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"workload\": " << json_string(args.workload)
      << ", \"result\": " << line.str() << ", \"manifest\": {";
  bool first = true;
  for (const auto& [k, v] : res.manifest) {
    out << (first ? "" : ", ") << json_string(k) << ": " << json_string(v);
    first = false;
  }
  out << "}";
  if (args.trace) out << ", \"trace\": " << trace_detail(run);
  out << "}\n";
  if (!out) throw std::runtime_error("cannot write " + path);

  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace lazybench

int main(int argc, char** argv) {
  try {
    const lazybench::Args args = lazybench::parse_args(argc, argv);
    if (args.selftest) return lazybench::selftest();
    return lazybench::bench_main(args);
  } catch (const std::exception& e) {
    std::cerr << "lazybench: " << e.what() << "\n";
    return 1;
  }
}
