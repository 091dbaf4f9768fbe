#include "src/graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

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

TEST(GraphIoDeath, TextHeadersRejectVertexCountBeyondVertexIds) {
  // 2^64 - 1 used to wrap GraphBuilder's offsets(n + 1) to an empty vector;
  // 2^32 is the first count a 32-bit VertexId cannot address. Both must be
  // refused before anything is sized from them.
  for (const char* n : {"18446744073709551615", "4294967296"}) {
    std::stringstream edges(std::string(n) + " 0\n");
    EXPECT_DEATH(read_edge_list(edges), "exceeds 32-bit vertex ids") << n;
    std::stringstream dimacs(std::string("p edge ") + n + " 0\n");
    EXPECT_DEATH(read_dimacs(dimacs), "exceeds 32-bit vertex ids") << n;
  }
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
  // As graphgen --stream-out writes it, compared against the in-memory
  // graph after the round trip.
  support::Rng rng(9);
  const Graph built = make_erdos_renyi_avg_degree(300, 8.0, rng);
  std::stringstream ss;
  write_packed(built, ss);
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

/// A complete packed file: `degree.size()` vertices whose rows, cut from
/// `adjacency` by `degree`, are taken verbatim.
std::string packed_file(const std::vector<std::uint32_t>& degree,
                        const std::vector<VertexId>& adjacency) {
  std::string bytes = packed_header(degree.size(), adjacency.size(), 0);
  bytes.append(reinterpret_cast<const char*>(degree.data()),
               degree.size() * sizeof(std::uint32_t));
  bytes.append(reinterpret_cast<const char*>(adjacency.data()),
               adjacency.size() * sizeof(VertexId));
  return bytes;
}

TEST(GraphIoDeath, PackedRejectsEachMalformedAdjacencyClass) {
  const struct {
    const char* what;
    std::vector<std::uint32_t> degree;
    std::vector<VertexId> adjacency;
    const char* message;
  } cases[] = {
      {"rows 1 and 2 list 0, row 0 is empty",
       {0, 1, 1}, {0, 0}, "unmatched lower neighbour"},
      {"0 lists 1, but 1's row starts with 2",
       {1, 1, 1, 1}, {1, 2, 3, 2}, "missing or misplaced reciprocal arc"},
      {"row 0 unsorted", {2, 1, 1}, {2, 1, 0, 0}, "not strictly ascending"},
      {"arc {0,1} twice", {2, 2}, {1, 1, 0, 0}, "duplicate arc"},
      {"0 and 1 each list themselves", {1, 1}, {0, 1}, "self-loop"},
      {"id >= n", {1, 1}, {5, 0}, "vertex out of range"},
      {"the last row's cursor runs past the arcs",
       {2, 2, 0}, {1, 2, 0, 2}, "past the end of the adjacency"},
      {"two lower rows claim vertex 2, whose row holds one",
       {1, 1, 1, 1}, {2, 2, 0, 1}, "more arcs into a vertex than its degree"},
      {"degrees do not sum to the arc count",
       {1, 2}, {1, 0}, "degree/arc mismatch"},
  };
  for (const auto& c : cases) {
    std::stringstream ss(packed_file(c.degree, c.adjacency));
    EXPECT_DEATH(read_packed(ss), c.message) << c.what;
  }
}

/// The accept set of read_packed, stated independently of it: a file loads
/// iff its rows are in range, loop-free, and rebuilding the arcs through
/// GraphBuilder (which symmetrizes, sorts and deduplicates) reproduces the
/// file byte for byte.
bool is_canonical_packed(const std::vector<std::uint32_t>& degree,
                         const std::vector<VertexId>& adjacency) {
  const std::size_t n = degree.size();
  std::size_t arcs = 0;
  for (const std::uint32_t d : degree) arcs += d;
  if (arcs != adjacency.size()) return false;
  GraphBuilder b(n, "");
  std::size_t i = 0;
  for (std::size_t v = 0; v < n; ++v)
    for (std::uint32_t k = 0; k < degree[v]; ++k, ++i) {
      if (adjacency[i] >= n || adjacency[i] == v) return false;
      b.add_edge(static_cast<VertexId>(v), adjacency[i]);
    }
  std::stringstream rebuilt;
  write_packed(std::move(b).build(), rebuilt);
  return rebuilt.str() == packed_file(degree, adjacency);
}

TEST(GraphIoDeath, PackedMutationsAbortOrLoadExactly) {
  // The unmutated file, then every single-entry rewrite (to each id 0..n,
  // n being out of range), every swap of two entries and every shift of one
  // unit of degree between two vertices of a small graph. Each file must
  // load into a graph that writes back to the same bytes exactly when the
  // independent predicate above accepts it, and abort otherwise.
  support::Rng rng(5);
  const Graph base = make_erdos_renyi(7, 0.45, rng);
  const std::size_t n = base.vertex_count();
  std::vector<std::uint32_t> degree;
  std::vector<VertexId> adjacency;
  for (VertexId v = 0; v < n; ++v) {
    degree.push_back(static_cast<std::uint32_t>(base.degree(v)));
    for (VertexId u : base.neighbors(v)) adjacency.push_back(u);
  }
  ASSERT_GE(adjacency.size(), 12u);
  ASSERT_TRUE(is_canonical_packed(degree, adjacency));

  // Mutations address the concatenated entries: degrees, then adjacency.
  const std::size_t entries = n + adjacency.size();
  auto entry = [&](std::vector<std::uint32_t>& d, std::vector<VertexId>& a,
                   std::size_t i) -> std::uint32_t& {
    return i < n ? d[i] : a[i - n];
  };
  std::vector<std::pair<std::vector<std::uint32_t>, std::vector<VertexId>>>
      mutants{{degree, adjacency}};
  for (std::size_t i = 0; i < entries; ++i)
    for (std::uint32_t value = 0; value <= n; ++value) {
      auto m = std::make_pair(degree, adjacency);
      std::uint32_t& e = entry(m.first, m.second, i);
      if (e == value) continue;
      e = value;
      mutants.push_back(std::move(m));
    }
  for (std::size_t i = 0; i < entries; ++i)
    for (std::size_t j = i + 1; j < entries; ++j) {
      auto m = std::make_pair(degree, adjacency);
      std::uint32_t& a = entry(m.first, m.second, i);
      std::uint32_t& b = entry(m.first, m.second, j);
      if (a == b) continue;
      std::swap(a, b);
      mutants.push_back(std::move(m));
    }
  for (std::size_t from = 0; from < n; ++from)
    for (std::size_t to = 0; to < n; ++to) {
      if (from == to || degree[from] == 0) continue;
      auto m = std::make_pair(degree, adjacency);
      --m.first[from];
      ++m.first[to];
      mutants.push_back(std::move(m));
    }

  ASSERT_GT(mutants.size(), 400u);
  for (const auto& [d, a] : mutants) {
    const std::string bytes = packed_file(d, a);
    std::stringstream ss(bytes);
    if (!is_canonical_packed(d, a)) {
      EXPECT_DEATH(read_packed(ss), "packed graph");
      continue;
    }
    const Graph g = read_packed(ss);
    std::stringstream out;
    write_packed(g, out);
    EXPECT_EQ(out.str(), bytes);
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
