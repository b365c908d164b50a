#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace lazygraph {
namespace {

TEST(EdgeListIo, RoundTrip) {
  const Graph g = gen::erdos_renyi(50, 200, 3, {1.0f, 5.0f});
  std::stringstream ss;
  io::write_edge_list(g, ss);
  const Graph back = io::read_edge_list(ss);
  ASSERT_EQ(back.num_edges(), g.num_edges());
  for (std::size_t i = 0; i < g.edges().size(); ++i) {
    EXPECT_EQ(back.edges()[i].src, g.edges()[i].src);
    EXPECT_EQ(back.edges()[i].dst, g.edges()[i].dst);
    EXPECT_NEAR(back.edges()[i].weight, g.edges()[i].weight, 1e-4);
  }
}

TEST(EdgeListIo, ParsesCommentsAndDefaultWeights) {
  std::stringstream ss("# a comment\n0 1\n1 2 3.5\n\n# another\n2 0\n");
  const Graph g = io::read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  ASSERT_EQ(g.num_edges(), 3u);
  EXPECT_FLOAT_EQ(g.edges()[0].weight, 1.0f);
  EXPECT_FLOAT_EQ(g.edges()[1].weight, 3.5f);
}

TEST(EdgeListIo, RejectsMalformedLine) {
  std::stringstream ss("0 1\nnot-an-edge\n");
  EXPECT_THROW(io::read_edge_list(ss), std::runtime_error);
}

// NaN, infinite and float-overflowing weights are rejected like malformed
// lines, and the error names the offending line by number and text — at
// any parse thread count.
TEST(EdgeListIo, RejectsNonFiniteWeightsWithLineNumber) {
  for (const char* bad :
       {"nan", "-nan", "inf", "-inf", "infinity", "1e39", "1e400"}) {
    const std::string line = std::string("2 3 ") + bad;
    const std::string text = "# header\n0 1 2.5\n1 2\n" + line + "\n3 0\n";
    for (const std::size_t threads : {1u, 4u}) {
      try {
        io::read_edge_list_text(text, {.threads = threads});
        FAIL() << bad << " accepted at threads=" << threads;
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 4:"), std::string::npos) << what;
        EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
        EXPECT_NE(what.find(line), std::string::npos) << what;
      }
    }
  }
}

TEST(EdgeListIo, RejectsMalformedWeightWithLineNumber) {
  const std::string text = "0 1 2.5\n1 2\n2 3 abc\n3 0\n";
  for (const std::size_t threads : {1u, 4u}) {
    try {
      io::read_edge_list_text(text, {.threads = threads});
      FAIL() << "unparsable weight accepted at threads=" << threads;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 3: malformed edge weight: 2 3 abc"),
                std::string::npos)
          << what;
    }
  }
}

TEST(EdgeListIo, RejectsVertexIdsOutsideVidRangeWithLineNumber) {
  // 5000000000 would narrow to 705032704; 4294967295 would wrap the vertex
  // count max_id + 1 to zero.
  for (const char* bad : {"1 5000000000", "5000000000 1", "4294967295 0",
                          "0 4294967295"}) {
    const std::string text = std::string("0 1\n1 2\n") + bad + "\n2 0\n";
    for (const std::size_t threads : {1u, 4u}) {
      try {
        io::read_edge_list_text(text, {.threads = threads});
        FAIL() << bad << " accepted at threads=" << threads;
      } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::string("line 3: vertex id out of range: ") +
                            bad),
                  std::string::npos)
            << what;
      }
    }
  }
}

TEST(EdgeListIo, MalformedLineErrorNamesLineNumber) {
  try {
    io::read_edge_list_text("0 1\n\n# c\nnot-an-edge\n", {.threads = 1});
    FAIL() << "malformed line accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 4: malformed"),
              std::string::npos)
        << e.what();
  }
}

TEST(EdgeListIo, EmptyInputYieldsEmptyGraph) {
  std::stringstream ss("# only comments\n");
  const Graph g = io::read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(BinaryIo, RoundTripExact) {
  const Graph g = gen::rmat(8, 6, 0.5, 0.2, 0.2, 5, {1.0f, 8.0f});
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, ss);
  const Graph back = io::read_binary(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(back.edges(), g.edges());
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream ss("garbage data that is not a graph");
  EXPECT_THROW(io::read_binary(ss), std::runtime_error);
}

TEST(BinaryIo, RejectsTruncatedData) {
  const Graph g = gen::erdos_renyi(20, 50, 1);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, ss);
  std::string data = ss.str();
  data.resize(data.size() / 2);
  std::stringstream truncated(data,
                              std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(io::read_binary(truncated), std::runtime_error);
}

// Hostile-header regressions: read_binary must validate the header against
// the payload instead of trusting it.

namespace {
// A well-formed file for graph g, with the header fields rewritten.
std::string binary_with_header(const Graph& g, std::uint64_t n,
                               std::uint64_t m) {
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, ss);
  std::string data = ss.str();
  std::memcpy(data.data() + 8, &n, sizeof(n));
  std::memcpy(data.data() + 16, &m, sizeof(m));
  return data;
}
}  // namespace

TEST(BinaryIo, RejectsEdgeCountThatOverflowsPayloadSize) {
  const Graph g = gen::erdos_renyi(10, 20, 1);
  // m * sizeof(Edge) would overflow a streamsize; must fail cleanly, not
  // allocate or read a wrapped-around payload size.
  const std::string data = binary_with_header(
      g, g.num_vertices(), std::numeric_limits<std::uint64_t>::max() / 4);
  std::stringstream ss(data, std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), std::runtime_error);
}

TEST(BinaryIo, RejectsInflatedEdgeCount) {
  const Graph g = gen::erdos_renyi(10, 20, 1);
  // Header claims more edges than the payload holds.
  const std::string data =
      binary_with_header(g, g.num_vertices(), g.num_edges() + 1000);
  std::stringstream ss(data, std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), std::runtime_error);
}

TEST(BinaryIo, RejectsEndpointsOutsideDeclaredVertexRange) {
  const Graph g = gen::erdos_renyi(10, 20, 1);
  // Header shrinks n below the actual endpoint range: every edge whose
  // endpoint is >= n must be rejected, or downstream CSR builds index OOB.
  const std::string data = binary_with_header(g, 2, g.num_edges());
  std::stringstream ss(data, std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), std::runtime_error);
}

TEST(BinaryIo, RejectsVertexCountBeyondVidRange) {
  const Graph g = gen::erdos_renyi(10, 20, 1);
  const std::string data = binary_with_header(
      g, std::uint64_t{1} << 40, g.num_edges());
  std::stringstream ss(data, std::ios::in | std::ios::out | std::ios::binary);
  EXPECT_THROW(io::read_binary(ss), std::runtime_error);
}

TEST(FileIo, WriteAndReadBack) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto text_path = (dir / "lazygraph_test_graph.txt").string();
  const auto bin_path = (dir / "lazygraph_test_graph.bin").string();
  const Graph g = gen::erdos_renyi(30, 90, 7);
  io::write_edge_list_file(g, text_path);
  io::write_binary_file(g, bin_path);
  EXPECT_EQ(io::read_edge_list_file(text_path).num_edges(), g.num_edges());
  EXPECT_EQ(io::read_binary_file(bin_path).edges(), g.edges());
  std::remove(text_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(io::read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace lazygraph
