// Graph serialization: SNAP-style whitespace edge lists (the format the
// paper's datasets ship in) and a compact binary format. Both round-trip
// through Graph.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace pregel {

/// Parse a SNAP-style edge list: one "src dst" pair per line, '#' comments
/// and blank lines ignored. Vertex ids may be sparse; they are compacted to
/// a dense [0, n) space in first-appearance order. Throws std::runtime_error
/// on malformed input.
Graph read_edge_list(std::istream& in, bool undirected = true);
Graph read_edge_list_file(const std::string& path, bool undirected = true);

/// Write "src dst" per arc (undirected graphs emit each edge once, with
/// src < dst).
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

/// Compact binary encoding (magic + header + CSR arrays, little-endian).
/// This is what workers "download from blob storage" in the simulation.
std::vector<std::byte> serialize_graph(const Graph& g);
Graph deserialize_graph(const std::vector<std::byte>& bytes);

/// METIS graph-file format (the format the paper's METIS partitioner
/// consumes): first line "n m [fmt]", then one line per vertex listing its
/// neighbors as 1-BASED ids. Only the unweighted variant (fmt absent or
/// "000"/"0") is supported; weighted inputs are rejected.
Graph read_metis(std::istream& in);
Graph read_metis_file(const std::string& path);
void write_metis(const Graph& g, std::ostream& out);
void write_metis_file(const Graph& g, const std::string& path);

}  // namespace pregel
