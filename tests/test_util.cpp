#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/common.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/threadpool.hpp"

namespace lazygraph {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng r(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ForkedStreamsIndependent) {
  Rng root(99);
  Rng a = root.fork(1);
  Rng b = root.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 5);
}

TEST(Mix64, InjectiveOnSmallInputs) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(mix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Require, ThrowsOnFalse) {
  EXPECT_THROW(require(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(require(true, "ok"));
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 5), 1);
}

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

// Re-entrant parallel_for from a worker of the same pool must execute the
// nested range inline: a worker that instead enqueued helper tasks and
// blocked on the nested join could starve once every other worker was itself
// parked inside a nested join. Guarded by the suite's ctest TIMEOUT, so a
// reintroduced starvation shows up as a killed test rather than a hang.
TEST(ThreadPool, NestedParallelForFromWorkersCompletes) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) { ++total; });
    });
  });
  EXPECT_EQ(total.load(), 8 * 16 * 4);
}

TEST(ThreadPool, NestedCallsFromManyOuterTasksDoNotStarve) {
  // More outer tasks than workers, each joining a nested range — the shape
  // that would deadlock if nested joins parked workers instead of running
  // the nested body inline.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) {
    pool.parallel_for(32, [&](std::size_t) { ++hits[i]; });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 32);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallel_for(10, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(SerialFor, RunsInOrder) {
  std::vector<std::size_t> order;
  serial_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RunningStat, MeanMinMax) {
  RunningStat s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(RunningStat, VarianceMatchesTextbook) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(10.0, 5);
  h.add(0.5);   // bucket 0
  h.add(9.9);   // bucket 4
  h.add(50.0);  // clamped to last
  EXPECT_EQ(h.counts()[0], 1u);
  EXPECT_EQ(h.counts()[4], 2u);
}

TEST(Table, FormatsRows) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.rows(), 1u);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("a"), std::string::npos);
  EXPECT_NE(os.str().find("2"), std::string::npos);
}

TEST(Table, RejectsWidthMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(std::uint64_t{42}), "42");
}

TEST(Options, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--beta=x"};
  Options o(5, argv, {"alpha", "beta", "flag"});
  EXPECT_TRUE(o.has("alpha"));
  EXPECT_EQ(o.get_int("alpha", 0), 3);
  EXPECT_TRUE(o.get_bool("flag", false));
  EXPECT_EQ(o.get("beta", ""), "x");
  EXPECT_EQ(o.positional().size(), 1u);
  EXPECT_EQ(o.positional()[0], "pos1");
}

TEST(Options, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  Options o(1, argv, {"missing"});
  EXPECT_FALSE(o.has("missing"));
  EXPECT_EQ(o.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(o.get_double("missing", 1.5), 1.5);
  EXPECT_FALSE(o.get_bool("missing", false));
}

// An undeclared flag is an error that names the flag, with or without a
// value — a retired flag must never be silently ignored.
TEST(Options, UnknownFlagThrowsNamingIt) {
  for (const char* arg : {"--retired-knob=4", "--retired-knob"}) {
    const char* argv[] = {"prog", "--machines=2", arg};
    try {
      Options o(3, argv, {"machines"});
      FAIL() << arg << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--retired-knob"),
                std::string::npos)
          << e.what();
    }
  }
}

// Numeric getters accept only values that parse completely.
TEST(Options, NumericValuesMustFullyParse) {
  const char* argv[] = {"prog", "--machines=abc", "--scale=0.5x",
                        "--top=12",     "--tol=1e-3",   "--k=7 "};
  Options o(6, argv, {"machines", "scale", "top", "tol", "k"});
  EXPECT_EQ(o.get_int("top", 0), 12);
  EXPECT_DOUBLE_EQ(o.get_double("tol", 0.0), 1e-3);
  EXPECT_THROW(o.get_int("machines", 16), std::invalid_argument);
  EXPECT_THROW(o.get_double("scale", 0.2), std::invalid_argument);
  EXPECT_THROW(o.get_int("k", 5), std::invalid_argument);
  try {
    o.get_int("machines", 16);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--machines"), std::string::npos);
  }
}

// A valueless flag stores an empty value: string and numeric getters fall
// back to their default (a bare --perf-report names no file, a bare
// --trace-summary takes its default count), while get_bool reads it as set.
TEST(Options, BareFlagTakesDefaultValue) {
  const char* argv[] = {"prog", "--perf-report", "--trace-summary",
                        "--verify"};
  Options o(4, argv, {"perf-report", "trace-summary", "verify"});
  EXPECT_TRUE(o.has("perf-report"));
  EXPECT_EQ(o.get("perf-report", ""), "");
  EXPECT_EQ(o.get_int("trace-summary", 10), 10);
  EXPECT_DOUBLE_EQ(o.get_double("trace-summary", 2.5), 2.5);
  EXPECT_TRUE(o.get_bool("verify", false));
}

TEST(Options, BoolValuesAreStrict) {
  const char* argv[] = {"prog", "--a=no", "--b=1", "--c=maybe"};
  Options o(4, argv, {"a", "b", "c"});
  EXPECT_FALSE(o.get_bool("a", true));
  EXPECT_TRUE(o.get_bool("b", false));
  EXPECT_THROW(o.get_bool("c", false), std::invalid_argument);
}

}  // namespace
}  // namespace lazygraph
