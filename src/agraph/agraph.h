// The a-graph: Graphitti's connection structure over annotation contents,
// referents, ontology terms and data objects (§I-II).
//
// "The a-graph structure ... connects nodes of the XML annotation trees to
// (i) nodes of the interval trees and R-trees and (ii) ontology nodes. It is
// implemented in a directed labeled multigraph data structure ... and serves
// as a general-purpose 'labeled join index'. The two primitive operations on
// the a-graph are path(node1, node2) ... and connect(node1, node2, ...)."
#ifndef GRAPHITTI_AGRAPH_AGRAPH_H_
#define GRAPHITTI_AGRAPH_AGRAPH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/dense_set.h"
#include "util/governance.h"
#include "util/result.h"

namespace graphitti {
namespace agraph {

class ConnectBatch;

/// The four kinds of nodes the a-graph joins.
enum class NodeKind : uint8_t {
  kContent = 0,       // an annotation content (XML document / node)
  kReferent = 1,      // a marked substructure (interval-tree/R-tree entry, set)
  kOntologyTerm = 2,  // a node of an ontology graph
  kDataObject = 3,    // a whole data object (sequence, image, tree, ...)
};

std::string_view NodeKindToString(NodeKind kind);

/// Typed node handle: (kind, id) where the id is issued by the owning store
/// (annotation store for contents/referents, ontology for terms, catalog for
/// data objects).
struct NodeRef {
  NodeKind kind = NodeKind::kContent;
  uint64_t id = 0;

  static NodeRef Content(uint64_t id) { return {NodeKind::kContent, id}; }
  static NodeRef Referent(uint64_t id) { return {NodeKind::kReferent, id}; }
  static NodeRef Term(uint64_t id) { return {NodeKind::kOntologyTerm, id}; }
  static NodeRef Object(uint64_t id) { return {NodeKind::kDataObject, id}; }

  bool operator==(const NodeRef& other) const {
    return kind == other.kind && id == other.id;
  }
  bool operator!=(const NodeRef& other) const { return !(*this == other); }
  bool operator<(const NodeRef& other) const {
    if (kind != other.kind) return kind < other.kind;
    return id < other.id;
  }

  std::string ToString() const {
    return std::string(NodeKindToString(kind)) + ":" + std::to_string(id);
  }
};

struct NodeRefHash {
  size_t operator()(const NodeRef& ref) const {
    // (id << 2) | kind is injective but trivially collides bucket-wise for
    // dense ids across kinds; splitmix64 gives full avalanche, which the
    // hash-join machinery in the query executor depends on.
    return static_cast<size_t>(
        util::Mix64((ref.id << 2) | static_cast<uint64_t>(ref.kind)));
  }
};

/// One directed labeled edge.
struct EdgeRecord {
  NodeRef from;
  NodeRef to;
  std::string label;

  bool operator==(const EdgeRecord& other) const {
    return from == other.from && to == other.to && label == other.label;
  }
};

/// Result of path(node1, node2): node sequence plus the labels of the edges
/// traversed (labels.size() == nodes.size() - 1).
struct Path {
  std::vector<NodeRef> nodes;
  std::vector<std::string> edge_labels;

  size_t hops() const { return edge_labels.size(); }
};

/// Result of connect(...): a connected subgraph spanning the requested
/// terminal nodes.
struct SubGraph {
  std::vector<NodeRef> nodes;
  std::vector<EdgeRecord> edges;

  bool ContainsNode(const NodeRef& ref) const;
};

struct PathOptions {
  /// Follow edge direction (false = undirected view, the default: indirect
  /// relatedness through shared referents ignores direction).
  bool directed = false;
  /// When non-empty, only edges with one of these labels are traversed.
  std::vector<std::string> allowed_labels;
  /// Give up beyond this many hops.
  size_t max_hops = SIZE_MAX;
};

struct ConnectOptions {
  std::vector<std::string> allowed_labels;
  /// Hop budget per merged connection path: every terminal the subgraph
  /// absorbs must lie within this many hops of some *other terminal*
  /// (the distance-network heuristic connects terminal pairs; a terminal
  /// only reachable through the middle of another pair's path does not
  /// qualify).
  size_t max_hops = SIZE_MAX;
  /// Wall-clock budget for Connect calls: checked between Prim rounds and
  /// pair-resolution sweeps (the coarse units of work), returning
  /// kDeadlineExceeded without perturbing tree state — a later retry on the
  /// same batch resumes from the rings already expanded. Default infinite.
  util::Deadline deadline;
  /// Cooperative cancellation; same check sites as `deadline`, kCancelled.
  util::CancellationToken cancel;
  /// Byte budget for this batch's BFS tree storage (record arrays + ring
  /// order vectors across all trees). 0 = unlimited. Exceeding it makes
  /// Connect return kResourceExhausted at the next sweep.
  size_t memory_budget_bytes = 0;
};

/// Directed labeled multigraph with interned labels and per-node adjacency
/// in both directions. Parallel edges (same endpoints, different or equal
/// labels) are permitted, per the multigraph design.
class AGraph {
 public:
  AGraph() = default;
  AGraph(const AGraph&) = delete;
  AGraph& operator=(const AGraph&) = delete;
  AGraph(AGraph&&) = default;
  AGraph& operator=(AGraph&&) = default;

  /// Makes room in node storage (dense arrays + the ref index) for
  /// `additional_nodes` more nodes. Growth is geometric: when the free
  /// capacity does not suffice, capacity becomes the larger of the exact
  /// need and twice the current capacity, so a large batch is sized in one
  /// shot and a stream of small batches on a large graph reallocates and
  /// rehashes O(log n) times in total rather than once per call. A call that
  /// fits the free capacity costs O(1). Edge adjacency is per-node and
  /// grows on demand. Never shrinks.
  void Reserve(size_t additional_nodes);

  /// Adds a node, which carries no text (see ToText); AlreadyExists when
  /// present.
  util::Status AddNode(NodeRef ref);

  // --- Index-based batch wiring -------------------------------------
  //
  // A batched commit touches the same content node for every one of its
  // marks; these entry points let it resolve each NodeRef and edge label
  // to its dense id ONCE and wire edges without re-hashing. Dense indexes
  // are stable only until the next RemoveNode (swap-with-last
  // compaction), so never hold them across mutations.

  /// EnsureNode that also returns the node's dense index.
  uint32_t EnsureNodeIndex(NodeRef ref);
  /// Interns an edge label, returning its id for AddEdgeIndexed.
  uint32_t InternEdgeLabel(std::string_view label) { return InternLabel(label); }
  /// Adds an edge between dense indexes with a pre-interned label id —
  /// AddEdge without any hashing. Indexes/label id must be live.
  void AddEdgeIndexed(uint32_t from, uint32_t to, uint32_t label_id);

  /// Idempotent node registration (no error when present).
  void EnsureNode(NodeRef ref);

  bool HasNode(NodeRef ref) const { return index_.find(ref) != index_.end(); }

  /// Removes a node and all incident edges; NotFound when absent.
  util::Status RemoveNode(NodeRef ref);

  /// Adds a directed labeled edge; both endpoints must exist.
  util::Status AddEdge(NodeRef from, NodeRef to, std::string_view label);

  bool HasEdge(NodeRef from, NodeRef to, std::string_view label) const;

  std::vector<EdgeRecord> OutEdges(NodeRef ref) const;
  std::vector<EdgeRecord> InEdges(NodeRef ref) const;

  /// Distinct neighbour nodes over out-edges (and in-edges when !directed),
  /// restricted to `label` when non-empty.
  std::vector<NodeRef> Neighbors(NodeRef ref, bool directed = false,
                                 std::string_view label = "") const;

  /// Allocation-free variant of Neighbors: appends the distinct neighbours
  /// to *out (which the caller clears and reuses across calls) in
  /// unspecified order. Distinctness is only guaranteed among the appended
  /// nodes, not against pre-existing elements of *out.
  void AppendNeighbors(NodeRef ref, bool directed, std::string_view label,
                       std::vector<NodeRef>* out) const;

  /// All nodes of a given kind, sorted.
  std::vector<NodeRef> NodesOfKind(NodeKind kind) const;

  /// Streams every node of `kind` in insertion (dense) order without
  /// materializing a vector — the candidate-enumeration fast path for the
  /// query executor.
  void ForEachNodeOfKind(NodeKind kind, const std::function<void(NodeRef)>& fn) const;

  /// Number of nodes of `kind` (one dense scan, no allocation).
  size_t CountNodesOfKind(NodeKind kind) const;

  /// Visits every node in insertion (dense) order.
  void ForEachNode(const std::function<void(NodeRef)>& fn) const;
  /// Visits every edge.
  void ForEachEdge(const std::function<void(const EdgeRecord&)>& fn) const;

  size_t num_nodes() const { return index_.size(); }
  size_t num_edges() const { return num_edges_; }

  /// Deep copy (every member is a value type) for copy-on-write version
  /// publication (util/epoch.h).
  AGraph Clone() const {
    AGraph copy;
    copy.index_ = index_;
    copy.refs_ = refs_;
    copy.out_ = out_;
    copy.in_ = in_;
    copy.labels_ = labels_;
    copy.label_index_ = label_index_;
    copy.num_edges_ = num_edges_;
    return copy;
  }

  // --- §II primitives ---

  /// path(node1, node2): a shortest path under `options` (BFS). NotFound
  /// when unreachable.
  util::Result<Path> FindPath(NodeRef from, NodeRef to, const PathOptions& options = {}) const;

  /// Appends every node whose shortest-path distance from `from` is at most
  /// `options.max_hops` (including `from` itself) to *out, in BFS order.
  /// One bounded BFS answers FindPath-existence for all candidates at once:
  /// `x ∈ reachable(from)` iff `FindPath(x, from, options)` succeeds under
  /// the undirected default. Unknown `from` appends nothing.
  void AppendReachable(NodeRef from, const PathOptions& options,
                       std::vector<NodeRef>* out) const;

  /// connect(node1, node2, ...): a connection subgraph intervening the given
  /// nodes — a pruned union of shortest paths (distance-network Steiner
  /// heuristic) over the undirected view. NotFound when the terminals do not
  /// share one connected component. Implemented as a ConnectBatch of one
  /// row, so per-row Connect and batched connect are edge-set-identical by
  /// construction.
  util::Result<SubGraph> Connect(const std::vector<NodeRef>& terminals,
                                 const ConnectOptions& options = {}) const;

  /// Contents indirectly related to `content`: contents (other than itself)
  /// sharing at least one referent ("if the same referent is connected to
  /// two different annotations ... the two annotations become indirectly
  /// related", §I).
  std::vector<NodeRef> IndirectlyRelatedContents(NodeRef content) const;

  // --- analytics (the admin tab's graph statistics) ---

  /// Connected components over the undirected view, each sorted; components
  /// ordered by their smallest node.
  std::vector<std::vector<NodeRef>> ConnectedComponents() const;

  /// Node counts per kind.
  // lint: allow-map(stats surface: tiny, ordered output for display)
  std::map<NodeKind, size_t> CountByKind() const;

  /// (min, max, mean) undirected degree across all nodes; zeros when empty.
  struct DegreeStats {
    size_t min = 0;
    size_t max = 0;
    double mean = 0;
  };
  DegreeStats Degrees() const;

  /// Enumerates up to `max_paths` simple paths from `from` to `to` with at
  /// most `max_hops` edges (undirected view, DFS order). Unlike FindPath
  /// this surfaces alternative connection routes for browsing.
  std::vector<Path> AllPaths(NodeRef from, NodeRef to, size_t max_hops,
                             size_t max_paths = 16) const;

  // --- serialization ---
  /// Line-oriented text dump (stable across loads). The graph stores no
  /// node text: `label_of` supplies each node's label ("" prints none).
  std::string ToText(const std::function<std::string(NodeRef)>& label_of) const;

 private:
  struct Edge {
    uint32_t other;  // dense index of the other endpoint
    uint32_t label;  // interned label id
  };

  static constexpr uint32_t kNoIndex = ~0u;

  uint32_t InternLabel(std::string_view label);
  /// Raw node insertion (no existence check); AddNode/EnsureNodeIndex's
  /// shared tail, keeping the four parallel arrays in one place.
  uint32_t InsertNodeUnchecked(NodeRef ref);
  /// Interned id for `label`, or kNoIndex when never seen.
  uint32_t FindLabelId(std::string_view label) const;
  util::Result<uint32_t> DenseIndex(NodeRef ref) const;

  // --- traversal core (agraph.cc) ---
  //
  // All traversals run on dense indexes over a per-thread epoch-stamped
  // TraversalScratch — no per-call O(V) allocation — and filter labels
  // through a LabelBitset over interned ids. Because the scratch is
  // thread_local (as are the ConnectBatch pools below), every const
  // traversal is safe to run from many threads at once against an
  // unchanging graph; the engine's reader-writer gate (core::Graphitti)
  // guarantees the "unchanging" part while readers are in flight.

  /// The calling thread's scratch (grows to the largest graph traversed).
  static util::TraversalScratch& Scratch();

  /// Compiles allowed_labels into *allowed. Returns false when the filter
  /// is non-empty but matches no interned label (no edge can pass).
  /// *has_filter is set when filtering is active.
  bool BuildAllowedBitset(const std::vector<std::string>& allowed_labels,
                          util::LabelBitset* allowed, bool* has_filter) const;

  /// Bidirectional BFS between the pre-seeded s->fwd and s->bwd sides
  /// (multi-source on either side). Expands the smaller frontier level by
  /// level; returns the dense index of a meet node on a shortest
  /// fwd-seed..bwd-seed path of length <= max_hops (written to *length), or
  /// kNoIndex when none exists. The forward side follows out-edges (plus
  /// in-edges when !directed); the backward side is mirrored.
  uint32_t BidirectionalSearch(util::TraversalScratch* s, bool directed,
                               size_t max_hops, bool has_filter,
                               size_t* length) const;

  friend class ConnectBatch;

  // lint: allow-map(node handle -> dense index; O(1) lookups dominate)
  std::unordered_map<NodeRef, uint32_t, NodeRefHash> index_;
  std::vector<NodeRef> refs_;          // dense -> NodeRef
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  std::vector<std::string> labels_;    // interned edge labels
  // lint: allow-map(label set is tiny and cold; heterogeneous find)
  std::map<std::string, uint32_t, std::less<>> label_index_;
  size_t num_edges_ = 0;
};

/// Batched connect over a shared set of BFS shortest-path trees (§III
/// collation). The query executor's GRAPH target produces many binding rows
/// whose terminal sets overlap heavily; running the Steiner heuristic per
/// row re-discovers the same shortest paths over and over. A ConnectBatch
/// instead builds one BFS tree per *distinct terminal node* — lazily, ring
/// by ring, only as deep as some row needs it — and assembles every row's
/// subgraph from those shared trees.
///
/// Results are edge-set-identical to calling AGraph::Connect per row:
/// Connect delegates to a single-row batch, and the greedy wave / path /
/// prune logic is shared and fully deterministic (rings are scanned in
/// ascending radius, terminals and attachment nodes tie-break on dense
/// index), so pre-expanded trees from earlier rows never change a later
/// row's answer.
///
/// A batch borrows the graph: the graph must not be mutated while the batch
/// is alive (under the engine's epoch scheme a pinned version never is).
/// One batch must not be used from two threads at once, but it may be
/// created, used, and destroyed on *different* threads — e.g. a batch
/// cached on a QueryResult and driven by whichever thread flips pages.
/// Tree storage is recycled through thread-local pools (what makes one-shot
/// Connect calls allocation-free in steady state); tree liveness stamps
/// come from a process-global counter, so storage recycled across threads
/// can never alias a live stamp. Distinct batches on distinct threads are
/// fully independent. Memory is O(distinct terminals x num_nodes) per
/// batch; callers bound it by batching one result page at a time.
class ConnectBatch {
 public:
  explicit ConnectBatch(const AGraph& graph, ConnectOptions options = {});
  ~ConnectBatch();
  ConnectBatch(const ConnectBatch&) = delete;
  ConnectBatch& operator=(const ConnectBatch&) = delete;

  /// Connection subgraph for one row of terminals. Same contract as
  /// AGraph::Connect: InvalidArgument on an empty row, NotFound when a
  /// terminal is unknown or the row is not in one connected component.
  util::Result<SubGraph> Connect(const std::vector<NodeRef>& terminals) {
    return Connect(terminals, options_.deadline, options_.cancel);
  }

  /// As above, governed by `deadline` and `cancel` in place of the batch's
  /// own options. A batch kept across calls (QueryResult::connect_batch)
  /// is governed this way by whichever call drives it, never by the call
  /// that created it.
  util::Result<SubGraph> Connect(const std::vector<NodeRef>& terminals,
                                 const util::Deadline& deadline,
                                 const util::CancellationToken& cancel);

  /// BFS shortest-path trees built so far (== distinct terminals seen
  /// across every row this batch connected).
  size_t trees_built() const;

  /// The graph this batch borrows (cache-invalidation hook for callers
  /// that keep a batch across calls, e.g. QueryResult::connect_batch).
  const AGraph* graph() const { return graph_; }

 private:
  struct TerminalTree;
  struct State;

  /// The (possibly pre-existing) tree rooted at dense index `terminal`.
  TerminalTree& TreeFor(uint32_t terminal);
  /// Expands `tree` by one BFS ring (all nodes at distance radius + 1).
  void ExpandRing(TerminalTree* tree);

  const AGraph* graph_;
  ConnectOptions options_;
  bool has_filter_ = false;
  bool filter_unsatisfiable_ = false;
  std::unique_ptr<State> state_;
};

}  // namespace agraph
}  // namespace graphitti

#endif  // GRAPHITTI_AGRAPH_AGRAPH_H_
