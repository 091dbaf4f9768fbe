#pragma once

#include <iosfwd>
#include <string>

#include "src/graph/graph.hpp"

namespace beepmis::graph {

/// Writes the graph as a plain edge list:
///   line 1: "<n> <m>"
///   then one "u v" line per edge (u < v).
void write_edge_list(const Graph& g, std::ostream& os);

/// Parses the format produced by write_edge_list. Aborts the stream-level
/// contract (bad counts, out-of-range vertices) via BEEPMIS_CHECK.
Graph read_edge_list(std::istream& is, std::string name = "loaded");

/// Graphviz DOT output for small graphs (debugging / examples).
void write_dot(const Graph& g, std::ostream& os);

/// DIMACS undirected-graph format ("c" comments, "p edge n m" header,
/// "e u v" lines, 1-based vertices) — the de-facto interchange format of
/// the graph-algorithm community; lets users run the library on standard
/// benchmark instances.
void write_dimacs(const Graph& g, std::ostream& os);

/// Parses DIMACS; tolerates comment lines anywhere and duplicate edges
/// (deduplicated). Aborts on malformed headers/records or out-of-range
/// vertices.
Graph read_dimacs(std::istream& is, std::string name = "dimacs");

/// Binary packed-CSR format ("BMPKCSR1" magic): header (n, arc count,
/// graph name), u32 per-vertex degrees, then the adjacency array verbatim.
/// Host-endian — a cache format for giant generated instances (graphgen
/// --stream-out), not an interchange format. ~12 bytes/edge versus the
/// text formats' ~15 bytes/edge plus parse time; reading is two bulk reads
/// instead of per-edge integer parsing.
void write_packed(const Graph& g, std::ostream& os);

/// Reads the write_packed format. Header sizes are checked against the
/// stream length before anything is allocated; the degree table and the
/// adjacency are then read in bulk straight into the Graph's CSR, and one
/// linear pass proves the full simple-graph contract in place: every id in
/// range, rows strictly ascending (no duplicates, no self-loops), and every
/// arc u -> v matched to its reverse v -> u. The only scratch is the
/// n x 4-byte degree table. Any violation aborts with a "packed graph:"
/// message. An empty `name` keeps the name stored in the file.
Graph read_packed(std::istream& is, std::string name = "");

}  // namespace beepmis::graph
