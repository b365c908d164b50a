// lazybench --selftest: the checks must reject corrupted outputs, so that
// ok_frac falls below 1, and the metric helpers must return known values.
#include <cmath>
#include <iostream>

#include "bench.hpp"

namespace lazybench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * (1 + b); }

void helpers() {
  expect(near(geomean({1.0, 4.0, 16.0}), 4.0), "geomean of 1, 4, 16 is 4");
  expect(near(geomean({2.0, 0.5}), 1.0), "geomean of reciprocals is 1");
  expect(ratio(3.0, 0.0) == 0.0 && near(ratio(3.0, 4.0), 0.75),
         "ratio divides and maps x/0 to 0");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
         "median of odd and even counts");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(percentile(hundred, 99) == 99 && percentile(hundred, 50) == 50,
         "nearest-rank p99 and p50 of 1..100");
  expect(percentile({5, 1, 3}, 99) == 5, "p99 of three samples is the max");
  expect(tail_percentile(1024) == 99.0, "p99 has >= 10 beyond it at n=1024");
  expect(tail_percentile(1000) == 99.0, "p99 has exactly 10 beyond at 1000");
  expect(tail_percentile(999) == 95.0, "n=999 falls back to p95");
  expect(tail_percentile(32) == 50.0, "n=32 supports only the median");
  expect(tail_percentile(15) == 0.0, "n=15 supports no percentile");
}

void corrupted_outputs() {
  const Graph g = gen::rmat(9, 8, 0.57, 0.19, 0.19, 7);
  const auto asg = partition::assign_edges(g, 4, {});
  const auto dg = partition::DistributedGraph::build(g, 4, asg);
  Result res;

  sim::Cluster c1({.machines = 4, .threads = 1});
  const double tol = 1e-4;
  auto pr = engine::run({.kind = engine::EngineKind::kLazyBlock}, dg,
                        algos::PageRankDelta{.tol = tol}, c1);
  const auto ref = reference::pagerank(g, 1e-12, 20'000);
  const bool pr_ok = ranks_close(pr.data, ref, tol);
  res.check(pr_ok, "pagerank vs reference");
  expect(pr_ok, "engine PageRank passes the reference check");
  pr.data[g.num_vertices() / 2].rank += 0.01;
  const bool pr_bad = ranks_close(pr.data, ref, tol);
  res.check(pr_bad, "selftest: perturbed pagerank vertex");
  expect(!pr_bad, "one perturbed PageRank vertex fails the check");

  sim::Cluster c2({.machines = 4, .threads = 1});
  sim::Cluster c3({.machines = 4, .threads = 1,
                   .failures = sim::FailurePlan::parse("1@2:1")});
  const algos::SSSP sssp{.source = max_out_degree_vertex(g)};
  const auto free_run = engine::run({.kind = engine::EngineKind::kAsync}, dg,
                                    sssp, c2);
  auto killed = engine::run({.kind = engine::EngineKind::kAsync}, dg, sssp,
                            c3);
  expect(same_bits(killed.data, free_run.data),
         "killed run reproduces its failure-free twin");
  double& d = killed.data[sssp.source].dist;  // 0: the source
  d = std::nextafter(d, 1.0);
  expect(!same_bits(killed.data, free_run.data),
         "one ulp of difference breaks the twin check");

  const auto pipe = plan::Pipeline::parse("kcore(3)|cc");
  const auto composed = plan::Executor(g, 4, {}, nullptr, 1).run(pipe);
  auto sequential = plan::Executor(g, 4, {}, nullptr, 1)
                        .run(pipe, plan::sequential_baseline({}));
  const bool digests_ok = same_digests(composed, sequential);
  res.check(digests_ok, "pipeline digests");
  expect(digests_ok, "composed lowering matches the sequential baseline");
  sequential.outcomes.back().digest.at(0) ^= 1;
  const bool digests_bad = same_digests(composed, sequential);
  res.check(digests_bad, "selftest: wrong stage digest");
  expect(!digests_bad, "one wrong digest word fails the check");

  expect(res.attempted == 4 && res.failed == 2 && res.ok_frac() == 0.5,
         "two corrupted outputs of four give ok_frac 0.5");
}

}  // namespace

int selftest() {
  helpers();
  corrupted_outputs();
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace lazybench
