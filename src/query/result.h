// Query results: heterogeneous substructure collections, XML fragments, or
// connection subgraphs — organized in pages (§II/III).
//
// Collation stores ids only. An item names its annotation, referent or
// terminal set; its display label and its referent's substructure are read
// on demand, through QueryResult::LabelOf / SubstructureOf, from the
// version the result was computed from — so a result costs one small item
// per answer, and only the rows a caller actually views pay for a label.
//
// GRAPH targets are paged lazily: `items` holds one lightweight row handle
// (a view of the row's sorted distinct terminal nodes in one terminal pool
// that the result owns) per distinct binding row, and the connection
// subgraphs themselves are only materialized — via
// Executor::MaterializePage, batched through agraph::ConnectBatch — for the
// rows of the requested page. The paper's §III presents connection
// subgraphs as the paged presentation layer over binding rows; building
// 100k Steiner subgraphs to show page 1 of 100k rows violated exactly that.
#ifndef GRAPHITTI_QUERY_RESULT_H_
#define GRAPHITTI_QUERY_RESULT_H_

#include <memory>
#include <string>
#include <vector>

#include "agraph/agraph.h"
#include "annotation/annotation.h"
#include "query/ast.h"
#include "substructure/substructure.h"
#include "util/epoch.h"

namespace graphitti {
namespace annotation {
class AnnotationStore;
}  // namespace annotation

namespace query {

/// Borrowed, iterable view of `count` contiguous elements starting at
/// `first`: a result's current page (QueryResult::Page) and a GRAPH row
/// handle (ResultItem::terminals).
template <typename T>
struct SpanView {
  const T* first = nullptr;
  size_t count = 0;
  const T* begin() const { return first; }
  const T* end() const { return first + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  const T& operator[](size_t i) const { return first[i]; }
};

/// One result item; the populated fields depend on the query target.
/// Collation emits one item per distinct target value (per distinct
/// terminal set for kGraph, per XPath match for kFragments), in the order
/// of first occurrence among the binding rows. An item carries ids, never a
/// label or a substructure copy: read those through QueryResult::LabelOf
/// and QueryResult::SubstructureOf.
struct ResultItem {
  // kContents / kFragments: the annotation.
  annotation::AnnotationId content_id = 0;
  // kReferents: the referent.
  annotation::ReferentId referent_id = 0;
  // kFragments: one XPath match, serialized (an attribute match is its
  // value).
  std::string fragment;
  // kGraph: the row handle — the binding row's sorted distinct terminal
  // nodes, viewed in the result's terminal pool (QueryResult::terminal_pool).
  // Filled for every item at collation. The view is valid while the result
  // that collated it, or a copy of that result, lives; copy it out with
  // std::vector<agraph::NodeRef>(t.begin(), t.end()) to keep it longer.
  SpanView<agraph::NodeRef> terminals;
  // kGraph: the row's type-extended connection subgraph. Empty until the
  // item's page is materialized (subgraph_ready distinguishes "not yet
  // materialized" from "materialized but disconnected", which is the only
  // materialized subgraph without nodes).
  agraph::SubGraph subgraph;
  bool subgraph_ready = false;
  // kCount: the number of distinct values of the target variable.
  size_t count = 0;
};

/// Why an execution finished (governance observability: a row-budget,
/// deadline, memory-budget, or cancellation abort must be distinguishable
/// from natural completion — ExecutionStats::stop_reason + Explain report
/// it, and the executor maps each to its status code).
enum class StopReason {
  kCompleted = 0,   // ran to the end
  kRowLimit,        // max_intermediate_rows exceeded (kOutOfRange)
  kDeadline,        // ExecutorOptions::deadline expired (kDeadlineExceeded)
  kMemoryBudget,    // memory_budget_bytes exceeded (kResourceExhausted)
  kCancelled,       // CancellationToken fired (kCancelled)
};

inline const char* StopReasonName(StopReason r) {
  switch (r) {
    case StopReason::kCompleted:
      return "completed";
    case StopReason::kRowLimit:
      return "row-limit";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kMemoryBudget:
      return "memory-budget";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

/// How the executor ran the query (exposed for tests and the ordering
/// ablation benchmark).
struct ExecutionStats {
  /// Variables in the order they were bound ("feasible order", §II).
  std::vector<std::string> binding_order;
  /// Candidate-set size per variable, keyed like binding_order.
  std::vector<size_t> candidate_counts;
  /// Binding rows each join level kept, keyed like binding_order; they
  /// sum to rows_examined.
  std::vector<size_t> level_rows;
  /// Intermediate binding rows materialized across all joins.
  size_t rows_examined = 0;
  /// Final (pre-paging) result item count.
  size_t items_produced = 0;
  /// Largest single join level (columnar binding-table width peak).
  size_t peak_rows = 0;
  /// Running maximum of the bytes held by the columnar binding table
  /// across join levels (values + parent links across all columns).
  size_t peak_bytes = 0;
  /// Connection subgraphs materialized so far — grows with each
  /// MaterializePage call, and stays proportional to the pages actually
  /// viewed, not to the result size.
  size_t subgraphs_materialized = 0;
  /// Per-terminal BFS trees built by batched connects across all
  /// MaterializePage calls.
  size_t connect_trees_built = 0;
  /// Why execution stopped (see StopReason). Anything but kCompleted means
  /// the query aborted early and any results are partial.
  StopReason stop_reason = StopReason::kCompleted;
};

struct QueryResult {
  Target target = Target::kContents;
  /// The variable the target collates (empty for kGraph, whose rows span
  /// every variable); kCount labels name it.
  std::string target_var;
  /// All items, pre-paging. For kGraph these are row handles; see
  /// ResultItem::terminals / subgraph_ready.
  std::vector<ResultItem> items;
  /// kGraph: every item's terminals, back to back in item order; each
  /// ResultItem::terminals views its slice. Immutable once collated and
  /// shared by copies of the result, so an item copied along with its
  /// result keeps a valid view after the original is moved or destroyed.
  std::shared_ptr<const std::vector<agraph::NodeRef>> terminal_pool;
  /// Current page, 1-based; 0 when the result is empty (no pages exist).
  size_t page = 0;
  size_t page_size = 0;
  /// Number of pages; 0 when `items` is empty.
  size_t total_pages = 0;
  /// The current page as an index range over `items` (replaces the old
  /// `page_items` deep copy; see Page()).
  size_t page_first = 0;
  size_t page_count = 0;
  ExecutionStats stats;
  /// Pin on the engine version this result was computed from (set by
  /// core::Graphitti::Query; empty for hand-wired QueryContexts). Keeps
  /// every pointer the result borrows — `store`, NodeRefs, and the graph
  /// behind `connect_batch` — alive and frozen for the result's lifetime,
  /// regardless of commits that land after the query returns.
  util::EpochPin snapshot;
  /// The store the result was computed from, borrowed (set by
  /// Executor::ExecuteInto). LabelOf and SubstructureOf read it. Through
  /// core::Graphitti, `snapshot` keeps it alive and frozen; a caller that
  /// wires a QueryContext by hand keeps it alive and unchanged for as long
  /// as it reads labels, as it already does for `connect_batch`.
  const annotation::AnnotationStore* store = nullptr;
  /// Batched-connect state reused across MaterializePage flips: the
  /// per-terminal BFS trees built for one page survive into the next, so
  /// revisiting a page (or sharing terminals across pages) never rebuilds
  /// them. Borrows the same graph `snapshot` pins; reset automatically if
  /// a flip sees a different graph.
  std::shared_ptr<agraph::ConnectBatch> connect_batch;

  /// Display label of `item`, built from the result's version on each call:
  ///   - kContents / kFragments: the annotation's node label (its title,
  ///     or "annotation-N" when it has none; AnnotationStore::NodeLabel);
  ///   - kReferents: the referent's node label (its substructure key);
  ///   - kCount: "count(?v) = N";
  ///   - kGraph: "subgraph(N nodes)" or "subgraph(disconnected)" once the
  ///     item's page is materialized, and empty before.
  /// kContents, kFragments and kReferents labels are empty when the result
  /// borrows no store (a default-constructed one).
  std::string LabelOf(const ResultItem& item) const;
  /// The substructure a kReferents item's referent marks, borrowed from the
  /// result's version; nullptr for any other target, or when the result
  /// borrows no store.
  const substructure::Substructure* SubstructureOf(const ResultItem& item) const;

  /// Borrowed, iterable view of the current page's slice of `items`.
  /// Invalidated by anything that mutates `items`.
  using PageView = SpanView<ResultItem>;
  PageView Page() const { return {items.data() + page_first, page_count}; }
};

}  // namespace query
}  // namespace graphitti

#endif  // GRAPHITTI_QUERY_RESULT_H_
