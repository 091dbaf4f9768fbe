#include "src/graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "src/graph/generators.hpp"

namespace beepmis::graph {
namespace {

TEST(GraphIo, EdgeListRoundTrip) {
  support::Rng rng(1);
  const Graph g = make_erdos_renyi(100, 0.05, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss, "reloaded");
  ASSERT_EQ(h.vertex_count(), g.vertex_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  EXPECT_EQ(h.name(), "reloaded");
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto a = g.neighbors(v), b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(GraphIo, EmptyGraphRoundTrip) {
  std::stringstream ss;
  write_edge_list(GraphBuilder(3).build(), ss);
  const Graph h = read_edge_list(ss);
  EXPECT_EQ(h.vertex_count(), 3u);
  EXPECT_EQ(h.edge_count(), 0u);
}

TEST(GraphIoDeath, TruncatedInputAborts) {
  std::stringstream ss("5 3\n0 1\n");
  EXPECT_DEATH(read_edge_list(ss), "truncated");
}

TEST(GraphIoDeath, BadHeaderAborts) {
  std::stringstream ss("not-a-number");
  EXPECT_DEATH(read_edge_list(ss), "bad header");
}

TEST(GraphIo, DotOutputContainsAllEdges) {
  const Graph g = make_cycle(4);
  std::stringstream ss;
  write_dot(g, ss);
  const std::string s = ss.str();
  EXPECT_NE(s.find("graph"), std::string::npos);
  EXPECT_NE(s.find("0 -- 1"), std::string::npos);
  EXPECT_NE(s.find("0 -- 3"), std::string::npos);
  // Each edge appears exactly once.
  EXPECT_EQ(s.find("1 -- 0"), std::string::npos);
}


TEST(GraphIo, DimacsRoundTrip) {
  support::Rng rng(3);
  const Graph g = make_erdos_renyi(80, 0.06, rng);
  std::stringstream ss;
  write_dimacs(g, ss);
  const Graph h = read_dimacs(ss, "rt");
  ASSERT_EQ(h.vertex_count(), g.vertex_count());
  ASSERT_EQ(h.edge_count(), g.edge_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto a = g.neighbors(v), b = h.neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(GraphIo, DimacsToleratesCommentsAndColKind) {
  std::stringstream ss(
      "c a comment\np col 3 2\nc another\ne 1 2\ne 2 3\n");
  const Graph g = read_dimacs(ss);
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(GraphIo, PackedRoundTrip) {
  // Through the streaming generator, as graphgen --stream-out writes it,
  // compared against the in-memory builder's graph after the round trip.
  support::Rng rng(9);
  const Graph built = make_erdos_renyi_avg_degree(300, 8.0, rng);
  const Graph streamed =
      make_erdos_renyi_avg_degree_stream(300, 8.0, support::Rng(9));
  std::stringstream ss;
  write_packed(streamed, ss);
  const Graph h = read_packed(ss);
  ASSERT_EQ(h.vertex_count(), built.vertex_count());
  ASSERT_EQ(h.edge_count(), built.edge_count());
  EXPECT_EQ(h.name(), built.name());
  EXPECT_EQ(h.max_degree(), built.max_degree());
  for (VertexId v = 0; v < built.vertex_count(); ++v) {
    const auto a = built.neighbors(v), b = h.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "vertex " << v;
  }
}

TEST(GraphIo, PackedRenameAndEmptyGraph) {
  std::stringstream ss;
  write_packed(GraphBuilder(5, "tiny").build(), ss);
  const Graph h = read_packed(ss, "renamed");
  EXPECT_EQ(h.vertex_count(), 5u);
  EXPECT_EQ(h.edge_count(), 0u);
  EXPECT_EQ(h.name(), "renamed");
}

/// A read-only stream buffer over a string that cannot seek, like a pipe.
class PipeBuf final : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(GraphIo, PackedReadsFromNonSeekableStream) {
  support::Rng rng(4);
  const Graph g = make_erdos_renyi_avg_degree(120, 6.0, rng);
  std::stringstream ss;
  write_packed(g, ss);
  PipeBuf pipe(ss.str());
  std::istream in(&pipe);
  ASSERT_LT(in.tellg(), 0);  // really non-seekable
  const Graph h = read_packed(in);
  ASSERT_EQ(h.vertex_count(), g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    const auto a = g.neighbors(v), b = h.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

TEST(GraphIoDeath, PackedMalformedInputsAbort) {
  {
    std::stringstream ss("definitely not packed");
    EXPECT_DEATH(read_packed(ss), "bad magic");
  }
  {
    const Graph g = make_cycle(6);
    std::stringstream ss;
    write_packed(g, ss);
    std::string bytes = ss.str();
    bytes.resize(bytes.size() - 4);  // drop the last adjacency entry
    std::stringstream truncated(bytes);
    EXPECT_DEATH(read_packed(truncated), "truncated");
  }
}

/// A packed-CSR header claiming `n` vertices and `arcs` arcs, followed by
/// `payload` zero bytes of degree/adjacency data.
std::string packed_header(std::uint64_t n, std::uint64_t arcs,
                          std::size_t payload) {
  std::string bytes = "BMPKCSR1";
  bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
  bytes.append(reinterpret_cast<const char*>(&arcs), sizeof arcs);
  const std::uint32_t name_len = 0;
  bytes.append(reinterpret_cast<const char*>(&name_len), sizeof name_len);
  bytes.append(payload, '\0');
  return bytes;
}

TEST(GraphIoDeath, PackedRejectsVertexCountBeyondVertexIds) {
  // 2^64 - 1 used to wrap offsets(n + 1) to an empty vector; 2^32 is the
  // first count a 32-bit VertexId cannot address.
  for (const std::uint64_t n : {~std::uint64_t{0}, std::uint64_t{1} << 32}) {
    std::stringstream ss(packed_header(n, 0, 64));
    EXPECT_DEATH(read_packed(ss), "exceeds 32-bit vertex ids") << n;
  }
}

TEST(GraphIoDeath, PackedRejectsSizesBeyondTheStream) {
  // Each header promises more degree/adjacency bytes than follow it, so the
  // reader must refuse before allocating the tables (multi-GiB here).
  const std::size_t payload = 1024;
  {
    std::stringstream ss(packed_header(std::uint64_t{1} << 31, 0, payload));
    EXPECT_DEATH(read_packed(ss), "exceed the stream length");
  }
  {
    std::stringstream ss(packed_header(4, std::uint64_t{1} << 40, payload));
    EXPECT_DEATH(read_packed(ss), "exceed the stream length");
  }
  {
    // Each table alone fits; together they do not.
    std::stringstream ss(packed_header(200, 200, payload));
    EXPECT_DEATH(read_packed(ss), "exceed the stream length");
  }
  {
    // arcs * 4 would wrap to 0 in 64 bits.
    std::stringstream ss(packed_header(4, std::uint64_t{1} << 62, payload));
    EXPECT_DEATH(read_packed(ss), "exceed the stream length");
  }
}

TEST(GraphIoDeath, DimacsMalformedInputsAbort) {
  {
    std::stringstream ss("e 1 2\n");
    EXPECT_DEATH(read_dimacs(ss), "before p line");
  }
  {
    std::stringstream ss("p edge 2 1\ne 1 3\n");
    EXPECT_DEATH(read_dimacs(ss), "out of range");
  }
  {
    std::stringstream ss("p edge 2 2\ne 1 2\n");
    EXPECT_DEATH(read_dimacs(ss), "edge count mismatch");
  }
  {
    std::stringstream ss("q what 1 1\n");
    EXPECT_DEATH(read_dimacs(ss), "unknown record");
  }
}

}  // namespace
}  // namespace beepmis::graph
