// Graph serialization: a human-readable edge-list text format (SNAP
// compatible: '#' comments, "u v [w]" lines), the DIMACS shortest-path
// challenge format the paper's road networks ship in (".gr" arcs), and a
// compact binary format with a magic/version header. The text formats are
// parsed line by line through stdio, since SNAP and DIMACS files can be
// larger than memory; the binary format goes through storage/.

#ifndef ISLABEL_GRAPH_GRAPH_IO_H_
#define ISLABEL_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/edge_list.h"
#include "graph/graph.h"
#include "util/result.h"
#include "util/status.h"

namespace islabel {

/// Writes "u v w" lines (one undirected edge per line).
Status WriteEdgeListText(const Graph& g, const std::string& path);

/// Reads a text edge list. Lines starting with '#' or '%' are comments.
/// Each data line is "u v" (weight 1) or "u v w". Duplicate edges merge to
/// the minimum weight; self-loops are dropped. CR-LF line endings are
/// accepted; errors name the offending 1-based line number.
Result<EdgeList> ReadEdgeListText(const std::string& path);

// ---- DIMACS shortest-path challenge format (road networks, §7) ----

/// Reads a DIMACS ".gr" graph: "c" comment lines, one "p sp N M" header,
/// then "a U V W" arc lines with 1-based vertex ids. Road-network files
/// list each undirected edge as two arcs; duplicates merge to the minimum
/// weight (EdgeList normalization), matching the undirected model of §2.
/// Errors name the offending 1-based line number.
Result<EdgeList> ReadDimacsGraph(const std::string& path);

/// Writes `g` in DIMACS ".gr" form: a "p sp N M" header (M counts arcs,
/// i.e. 2|E|) and both orientations of every undirected edge, 1-based.
Status WriteDimacsGraph(const Graph& g, const std::string& path);

/// Binary graph format: magic, version, |V|, |E|, then one varint-coded
/// record per undirected edge. Exact round-trip, including via arrays.
Status WriteGraphBinary(const Graph& g, const std::string& path);
Result<Graph> ReadGraphBinary(const std::string& path);

}  // namespace islabel

#endif  // ISLABEL_GRAPH_GRAPH_IO_H_
