#include "query/executor.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "query/binding_table.h"
#include "query/parser.h"
#include "substructure/operators.h"
#include "util/dense_set.h"
#include "xml/xpath.h"

namespace graphitti {
namespace query {

namespace {

using agraph::NodeKind;
using agraph::NodeRef;
using agraph::NodeRefHash;
using annotation::AnnotationId;
using annotation::ReferentId;
using util::Result;
using util::Status;

NodeKind ToNodeKind(VarKind kind) {
  switch (kind) {
    case VarKind::kContent:
      return NodeKind::kContent;
    case VarKind::kReferent:
      return NodeKind::kReferent;
    case VarKind::kTerm:
      return NodeKind::kOntologyTerm;
    case VarKind::kObject:
      return NodeKind::kDataObject;
    case VarKind::kAny:
      break;
  }
  return NodeKind::kContent;  // unreachable: kinds are resolved before use
}

/// Per-variable compiled info. Constrained variables stream their
/// candidates into `streamed` (sorted + deduplicated); the hash set for
/// join membership is built lazily, only when the variable is actually
/// bound through a join edge. Unconstrained variables (no single-var
/// filters) skip enumeration entirely — membership is a kind check against
/// the a-graph, the count comes from the owning store, and `streamed` is
/// materialized lazily only for cartesian extension.
struct VarInfo {
  std::string name;
  size_t declaration_index = 0;  // first clause mentioning it
  VarKind kind = VarKind::kAny;
  std::vector<const Clause*> filters;  // single-var clauses
  bool unconstrained = false;
  size_t candidate_count = 0;
  std::vector<NodeRef> streamed;  // sorted unique candidates (when enumerated)
  bool streamed_ready = false;
  // lint: allow-map(join membership probe; built lazily, once per joined variable)
  std::unordered_set<NodeRef, NodeRefHash> candidate_set;
  bool set_ready = false;
  size_t column = SIZE_MAX;  // binding-table column, once the join binds it

  bool bound() const { return column != SIZE_MAX; }

  /// Membership test for hash semi-joins: a candidate-set probe (after
  /// EnsureSet), or a kind check when the variable is unconstrained
  /// (a-graph neighbours of the right kind are committed store entries by
  /// construction).
  bool Admits(NodeRef n) const {
    if (unconstrained) return n.kind == ToNodeKind(kind);
    return candidate_set.count(n) > 0;
  }
  void EnsureSet() {
    if (unconstrained || set_ready) return;
    set_ready = true;
    candidate_set.reserve(streamed.size());
    candidate_set.insert(streamed.begin(), streamed.end());
  }
};

/// Index of the variable called `name` in the name-sorted `vars`, or
/// SIZE_MAX.
size_t FindVar(const std::vector<VarInfo>& vars, const std::string& name) {
  auto it = std::lower_bound(vars.begin(), vars.end(), name,
                             [](const VarInfo& v, const std::string& n) { return v.name < n; });
  return it != vars.end() && it->name == name ? static_cast<size_t>(it - vars.begin())
                                              : SIZE_MAX;
}

/// The end of the pair (a, b) opposite variable v, or SIZE_MAX when v is
/// neither end.
size_t Opposite(size_t a, size_t b, size_t v) { return a == v ? b : (b == v ? a : SIZE_MAX); }

/// Pairwise constraint predicate between two variables (indexes into
/// Execution::vars).
struct PairPredicate {
  enum class Kind { kBefore, kDisjoint, kOverlapping, kSameDomain };
  Kind kind;
  size_t a;
  size_t b;
};

/// Edge clause between two variables, normalized.
struct EdgeInfo {
  const Clause* clause;
  size_t a;                // clause->var
  size_t b;                // clause->var2
  std::string_view label;  // a-graph edge label ("" for CONNECTED)
};

std::string_view EdgeLabelFor(Clause::Kind kind) {
  switch (kind) {
    case Clause::Kind::kAnnotates:
      return annotation::kEdgeAnnotates;
    case Clause::Kind::kRefersTo:
      return annotation::kEdgeRefersTo;
    case Clause::Kind::kOfObject:
      return annotation::kEdgeOfObject;
    default:
      return "";
  }
}

/// Expected kinds induced by each clause, for inference/validation.
struct KindExpectation {
  VarKind subject = VarKind::kAny;
  VarKind object = VarKind::kAny;
};

KindExpectation ExpectationFor(const Clause& c) {
  switch (c.kind) {
    case Clause::Kind::kIs:
      return {c.is_kind, VarKind::kAny};
    case Clause::Kind::kContains:
    case Clause::Kind::kXPath:
    case Clause::Kind::kCreator:
      return {VarKind::kContent, VarKind::kAny};
    case Clause::Kind::kType:
    case Clause::Kind::kDomain:
    case Clause::Kind::kOverlaps:
    case Clause::Kind::kContainedIn:
      return {VarKind::kReferent, VarKind::kAny};
    case Clause::Kind::kTerm:
    case Clause::Kind::kTermBelow:
      return {VarKind::kTerm, VarKind::kAny};
    case Clause::Kind::kTable:
      return {VarKind::kObject, VarKind::kAny};
    case Clause::Kind::kAnnotates:
      return {VarKind::kContent, VarKind::kReferent};
    case Clause::Kind::kRefersTo:
      return {VarKind::kContent, VarKind::kTerm};
    case Clause::Kind::kOfObject:
      return {VarKind::kReferent, VarKind::kObject};
    case Clause::Kind::kConnected:
      return {VarKind::kAny, VarKind::kAny};
  }
  return {};
}

Status MergeKind(VarInfo* info, VarKind kind) {
  if (kind == VarKind::kAny) return Status::OK();
  if (info->kind == VarKind::kAny) {
    info->kind = kind;
    return Status::OK();
  }
  if (info->kind != kind) {
    return Status::TypeError("variable ?" + info->name + " used with conflicting kinds");
  }
  return Status::OK();
}

/// Borrowed referent pointers memoized per execution, so the join pays one
/// store lookup per distinct bound referent and join-edge candidate instead
/// of one per binding row.
// lint: allow-map(per-query cache; hashed, sized by candidate count)
using ReferentCache = std::unordered_map<uint64_t, const annotation::Referent*>;

/// Reachability memo for CONNECTED joins: one bounded BFS per distinct
/// (bound node, hop limit) instead of one FindPath per row.
class ReachCache {
 public:
  explicit ReachCache(const agraph::AGraph& graph) : graph_(graph) {}

  /// Whether `to` lies within `hops` of `from`.
  bool Reaches(NodeRef from, size_t hops, NodeRef to) {
    auto [it, inserted] = cache_.try_emplace(Key{from, hops});
    if (inserted) {
      agraph::PathOptions popt;
      popt.max_hops = hops;
      buf_.clear();
      graph_.AppendReachable(from, popt, &buf_);
      it->second.insert(buf_.begin(), buf_.end());
    }
    return it->second.count(to) > 0;
  }

 private:
  struct Key {
    NodeRef node;
    size_t hops;
    bool operator==(const Key& o) const { return node == o.node && hops == o.hops; }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(
          util::Mix64(NodeRefHash{}(k.node) ^ (k.hops * 0x9e3779b97f4a7c15ull)));
    }
  };
  // lint: allow-map(reach set: probed once per CONNECTED candidate, one per memo entry)
  using ReachSet = std::unordered_set<NodeRef, NodeRefHash>;

  const agraph::AGraph& graph_;
  // lint: allow-map(per-query memo; hashed, bounded by visited nodes)
  std::unordered_map<Key, ReachSet, KeyHash> cache_;
  std::vector<NodeRef> buf_;
};

/// Evaluates one pairwise constraint on referents the join resolved once. A
/// null referent (a node that is no live referent) fails every predicate.
bool EvalPair(PairPredicate::Kind kind, const annotation::Referent* ra,
              const annotation::Referent* rb) {
  if (ra == nullptr || rb == nullptr) return false;
  const substructure::Substructure& sa = ra->substructure;
  const substructure::Substructure& sb = rb->substructure;
  // IfOverlap refuses a cross-type or cross-domain pair with a formatted
  // error, which means false here; testing `same` first skips building it.
  auto same = [&] { return sa.type() == sb.type() && sa.domain() == sb.domain(); };
  switch (kind) {
    case PairPredicate::Kind::kSameDomain:
      return same();
    case PairPredicate::Kind::kBefore:
      if (sa.type() != substructure::SubType::kInterval ||
          sb.type() != substructure::SubType::kInterval) {
        return false;
      }
      return sa.interval().lo < sb.interval().lo;
    case PairPredicate::Kind::kDisjoint:
    case PairPredicate::Kind::kOverlapping: {
      if (!same()) return false;
      auto overlap = substructure::IfOverlap(sa, sb);
      return overlap.ok() && *overlap == (kind == PairPredicate::Kind::kOverlapping);
    }
  }
  return false;
}

/// Sorts a GRAPH row's terminals in place. A row holds one terminal per
/// query variable, a handful, so an insertion sort beats std::sort here.
void SortRow(NodeRef* first, NodeRef* last) {
  if (last - first < 2) return;
  for (NodeRef* i = first + 1; i != last; ++i) {
    NodeRef t = *i;
    NodeRef* j = i;
    for (; j != first && t < *(j - 1); --j) *j = *(j - 1);
    *j = t;
  }
}

StopReason ReasonFromStatus(const Status& s) {
  if (s.IsDeadlineExceeded()) return StopReason::kDeadline;
  if (s.IsCancelled()) return StopReason::kCancelled;
  if (s.IsResourceExhausted()) return StopReason::kMemoryBudget;
  return StopReason::kCompleted;  // not a governance status
}

/// Records a governance stop (kCompleted == keep going). The first reason
/// wins, so a level that hits the row limit and then the byte budget
/// reports the row limit.
void TripStop(StopReason* stop, StopReason reason) {
  if (*stop == StopReason::kCompleted) *stop = reason;
}

/// One amortized governance check (see util::GovernanceGate::Check): on a
/// deadline or cancellation it records the stop and returns true.
bool Tripped(util::GovernanceGate* gate, StopReason* stop) {
  Status gs = gate->Check();
  if (gs.ok()) return false;
  TripStop(stop, ReasonFromStatus(gs));
  return true;
}

/// The status Execute() reports for a governance stop.
Status StopStatus(StopReason reason, const ExecutorOptions& options) {
  switch (reason) {
    case StopReason::kRowLimit:
      return Status::OutOfRange("query exceeded max_intermediate_rows (" +
                                std::to_string(options.max_intermediate_rows) + ")");
    case StopReason::kDeadline:
      return Status::DeadlineExceeded("query deadline exceeded");
    case StopReason::kMemoryBudget:
      return Status::ResourceExhausted(
          "query exceeded memory budget (" +
          std::to_string(options.memory_budget_bytes) + " bytes)");
    case StopReason::kCancelled:
      return Status::Cancelled("query cancelled");
    case StopReason::kCompleted:
      break;
  }
  return Status::OK();
}

/// Streams every candidate for `info` — its typed subquery with all
/// single-variable filters applied — into `emit`, without materializing the
/// intermediate id vectors the row-based executor built per filter stage.
/// *emitted_ordered is set when the stream is ascending and duplicate-free
/// (store-order feeds), letting the consumer skip its sort+dedup pass.
/// A governance stop trips *stop and ends the stream early.
Status ForEachCandidate(const QueryContext& ctx, const VarInfo& info, bool* emitted_ordered,
                        util::GovernanceGate* gate, StopReason* stop,
                        const std::function<void(NodeRef)>& emit) {
  const annotation::AnnotationStore& store = *ctx.store;
  const agraph::AGraph& graph = *ctx.graph;

  // Store visitors cannot break early, so once tripped every later call
  // returns at once.
  auto tripped = [&]() { return *stop != StopReason::kCompleted || Tripped(gate, stop); };

  switch (info.kind) {
    case VarKind::kContent: {
      // Start from the most selective content filter available: the
      // intersection of CONTAINS posting hits.
      std::vector<AnnotationId> ids;
      bool have_ids = false;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kContains) {
          std::vector<AnnotationId> found = store.SearchPhrase(c->text);
          if (!have_ids) {
            ids = std::move(found);
            have_ids = true;
          } else {
            std::vector<AnnotationId> merged;
            std::set_intersection(ids.begin(), ids.end(), found.begin(), found.end(),
                                  std::back_inserter(merged));
            ids = std::move(merged);
          }
        }
      }
      // Remaining content filters are applied inline while streaming.
      std::vector<xml::XPathExpr> xpaths;
      std::vector<const std::string*> creators;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kXPath) {
          GRAPHITTI_ASSIGN_OR_RETURN(xml::XPathExpr expr, xml::XPathExpr::Compile(c->text));
          xpaths.push_back(std::move(expr));
        } else if (c->kind == Clause::Kind::kCreator) {
          creators.push_back(&c->text);
        }
      }
      auto passes = [&](const annotation::Annotation& ann) {
        for (const xml::XPathExpr& expr : xpaths) {
          // ContentOf hydrates snapshot-restored cold content on demand.
          const xml::XmlDocument& content = store.ContentOf(ann);
          if (content.root() == nullptr || !expr.Matches(content.root())) {
            return false;
          }
        }
        for (const std::string* creator : creators) {
          if (ann.dc.creator != *creator) return false;
        }
        return true;
      };
      *emitted_ordered = true;  // posting lists and the store stream ascend
      if (have_ids) {
        // SearchPhrase answers from the phrase-search text, which holds
        // exactly the live annotations, so a hit needs a store lookup only
        // when an XPATH or CREATOR filter must inspect its annotation.
        const bool inspect = !xpaths.empty() || !creators.empty();
        for (AnnotationId id : ids) {
          if (tripped()) return Status::OK();
          if (inspect) {
            const annotation::Annotation* ann = store.Get(id);
            if (ann == nullptr || !passes(*ann)) continue;
          }
          emit(NodeRef::Content(id));
        }
      } else {
        store.ForEachAnnotation([&](AnnotationId id, const annotation::Annotation& ann) {
          if (tripped()) return;
          if (passes(ann)) emit(NodeRef::Content(id));
        });
      }
      return Status::OK();
    }

    case VarKind::kReferent: {
      std::string type_filter;
      std::string domain;
      std::vector<const Clause*> windows;  // kOverlaps + kContainedIn
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kType) type_filter = c->text;
        if (c->kind == Clause::Kind::kDomain) domain = c->text;
        if (c->kind == Clause::Kind::kOverlaps || c->kind == Clause::Kind::kContainedIn) {
          windows.push_back(c);
        }
      }
      // Window geometry in canonical coordinates, computed once per query:
      // region referents are indexed in canonical coordinates, so a rect
      // window is mapped through the DOMAIN's system (or, without a DOMAIN,
      // the system the window names). An unregistered system compares raw.
      const spatial::CoordinateSystemRegistry& systems = ctx.indexes->coordinate_systems();
      std::vector<spatial::Rect> window_rects(windows.size());
      for (size_t i = 0; i < windows.size(); ++i) {
        const Clause* c = windows[i];
        if (!c->rect_window) continue;
        auto mapped = systems.ToCanonical(domain.empty() ? c->text : domain, c->rect);
        window_rects[i] = mapped.ok() ? mapped->second : c->rect;
      }
      // A referent's rect holds its local coordinates, so it is mapped
      // through its own domain's system. That system is resolved once per
      // distinct domain in a row (with a DOMAIN filter, once per query),
      // not once per candidate.
      std::string cs_domain;  // the domain `cs` was resolved for
      util::Result<spatial::CoordinateSystem> cs = Status::NotFound("not resolved yet");
      bool cs_resolved = false;
      auto stored_canonical = [&](const substructure::Substructure& sub) {
        if (!cs_resolved || cs_domain != sub.domain()) {
          cs = systems.Get(sub.domain());
          cs_domain = sub.domain();
          cs_resolved = true;
        }
        if (!cs.ok() || cs->dims != sub.rect().dims) return sub.rect();
        return cs->ToCanonical(sub.rect());
      };
      auto keep = [&](const annotation::Referent& ref) {
        const substructure::Substructure& sub = ref.substructure;
        if (!domain.empty() && sub.domain() != domain) return false;
        if (!type_filter.empty() &&
            substructure::SubTypeToString(sub.type()) != type_filter) {
          return false;
        }
        for (size_t i = 0; i < windows.size(); ++i) {
          const Clause* w = windows[i];
          if (w->rect_window) {
            if (sub.type() != substructure::SubType::kRegion) return false;
            spatial::Rect stored_rect = stored_canonical(sub);
            bool ok_w = w->kind == Clause::Kind::kOverlaps
                            ? stored_rect.Overlaps(window_rects[i])
                            : window_rects[i].Contains(stored_rect);
            if (!ok_w) return false;
          } else {
            if (sub.type() != substructure::SubType::kInterval) return false;
            bool ok_w = w->kind == Clause::Kind::kOverlaps
                            ? sub.interval().Overlaps(w->interval)
                            : w->interval.Contains(sub.interval());
            if (!ok_w) return false;
          }
        }
        return true;
      };
      auto visit = [&](ReferentId id, const annotation::Referent& ref) {
        if (tripped()) return;
        if (keep(ref)) emit(NodeRef::Referent(id));
      };
      if (!windows.empty() && !domain.empty()) {
        // Index-accelerated spatial subquery. Probing with overlap semantics
        // is a superset of containment; exact semantics live in keep().
        // Index hits stream in tree order, not id order.
        const Clause* probe = windows.front();
        auto visit_id = [&](uint64_t id) {
          const annotation::Referent* ref = store.GetReferent(id);
          if (ref != nullptr) visit(id, *ref);
        };
        if (probe->rect_window) {
          GRAPHITTI_RETURN_NOT_OK(ctx.indexes->ForEachRegion(
              domain, probe->rect,
              [&](const spatial::RTreeEntry& h) { visit_id(h.id); }));
        } else {
          ctx.indexes->ForEachInterval(
              domain, probe->interval,
              [&](const spatial::IntervalEntry& h) { visit_id(h.id); });
        }
      } else if (!domain.empty()) {
        // DOMAIN-only subquery: index-backed, O(|referents in domain|).
        *emitted_ordered = true;
        store.ForEachReferentInDomain(domain, visit);
      } else {
        *emitted_ordered = true;
        store.ForEachReferent(visit);
      }
      return Status::OK();
    }

    case VarKind::kTerm: {
      std::vector<std::string> wanted;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kTerm) {
          wanted.push_back(c->text);
        } else if (c->kind == Clause::Kind::kTermBelow) {
          if (ctx.ontologies == nullptr) {
            return Status::Unsupported("TERM BELOW requires an ontology resolver");
          }
          for (const std::string& q : ctx.ontologies->ExpandTermBelow(c->text)) {
            wanted.push_back(q);
          }
        }
      }
      if (wanted.empty()) {
        graph.ForEachNodeOfKind(NodeKind::kOntologyTerm, [&](NodeRef n) {
          if (tripped()) return;
          emit(n);
        });
      } else {
        for (const std::string& q : wanted) {
          auto node = store.FindTermNode(q);
          if (node.ok()) emit(*node);
        }
      }
      return Status::OK();
    }

    case VarKind::kObject: {
      const Clause* table_clause = nullptr;
      for (const Clause* c : info.filters) {
        if (c->kind == Clause::Kind::kTable) table_clause = c;
      }
      if (table_clause != nullptr) {
        if (ctx.objects == nullptr) {
          return Status::Unsupported("TABLE clauses require an object resolver");
        }
        GRAPHITTI_ASSIGN_OR_RETURN(
            std::vector<uint64_t> ids,
            ctx.objects->FindObjects(table_clause->text, table_clause->table_filter));
        for (uint64_t id : ids) {
          if (tripped()) return Status::OK();
          emit(NodeRef::Object(id));
        }
      } else {
        graph.ForEachNodeOfKind(NodeKind::kDataObject, [&](NodeRef n) {
          if (tripped()) return;
          emit(n);
        });
      }
      return Status::OK();
    }

    case VarKind::kAny:
      break;
  }
  return Status::Internal("unreachable: unresolved kind");
}

/// One query's execution state, threaded through the stages below. Each
/// stage reads what the stages before it wrote and fills its own fields;
/// any of them may record a governance stop.
struct Execution {
  Execution(const QueryContext& context, const ExecutorOptions& opts, const Query& q)
      : ctx(context), options(opts), query(q), gate(opts.deadline, opts.cancel) {}

  const QueryContext& ctx;
  const ExecutorOptions& options;
  const Query& query;
  // One gate amortizes the deadline and cancellation checks of every loop,
  // and `stop` records the first of deadline expiry, cancellation, the row
  // limit or the byte budget.
  util::GovernanceGate gate;
  StopReason stop = StopReason::kCompleted;

  // Sorted by name: the planner breaks ties in name order.
  std::vector<VarInfo> vars;
  std::vector<EdgeInfo> edges;  // in clause order
  size_t target = SIZE_MAX;     // the collated variable; SIZE_MAX for GRAPH
  xml::XPathExpr fragment_xpath;
  std::vector<PairPredicate> pair_preds;
  std::vector<size_t> order;  // binding order, as indexes into vars
  BindingTable table;
};

/// Streams `info`'s candidates into info->streamed, ascending and
/// duplicate-free.
Status Materialize(Execution* ex, VarInfo* info) {
  bool ordered = false;
  info->streamed.reserve(info->candidate_count);
  GRAPHITTI_RETURN_NOT_OK(ForEachCandidate(ex->ctx, *info, &ordered, &ex->gate, &ex->stop,
                                           [info](NodeRef n) { info->streamed.push_back(n); }));
  if (!ordered) {
    std::sort(info->streamed.begin(), info->streamed.end());
    info->streamed.erase(std::unique(info->streamed.begin(), info->streamed.end()),
                         info->streamed.end());
  }
  info->streamed_ready = true;
  return Status::OK();
}

/// Stage 1, the §II decomposition: collects the variables, infers their
/// kinds, and splits clauses into per-variable subqueries and
/// inter-variable edges. It also resolves the result target and the
/// FRAGMENTS XPath, so an invalid target fails before any candidate
/// streaming or join work (and before a governance stop that the join
/// could hit first).
Status Plan(Execution* ex) {
  const Query& query = ex->query;
  std::vector<VarInfo>& vars = ex->vars;
  auto mention = [&](const std::string& name, size_t clause) {
    VarInfo& info = vars.emplace_back();
    info.name = name;
    info.declaration_index = clause;
  };
  for (size_t i = 0; i < query.clauses.size(); ++i) {
    mention(query.clauses[i].var, i);
    if (!query.clauses[i].var2.empty()) mention(query.clauses[i].var2, i);
  }
  // Stable, so each name keeps its first mention.
  std::stable_sort(vars.begin(), vars.end(),
                   [](const VarInfo& x, const VarInfo& y) { return x.name < y.name; });
  vars.erase(std::unique(vars.begin(), vars.end(),
                         [](const VarInfo& x, const VarInfo& y) { return x.name == y.name; }),
             vars.end());

  for (const Clause& c : query.clauses) {
    size_t subject = FindVar(vars, c.var);
    KindExpectation expect = ExpectationFor(c);
    GRAPHITTI_RETURN_NOT_OK(MergeKind(&vars[subject], expect.subject));
    if (!c.var2.empty()) {
      size_t object = FindVar(vars, c.var2);
      GRAPHITTI_RETURN_NOT_OK(MergeKind(&vars[object], expect.object));
      ex->edges.push_back({&c, subject, object, EdgeLabelFor(c.kind)});
    } else if (c.kind != Clause::Kind::kIs) {
      vars[subject].filters.push_back(&c);
    }
  }
  for (const VarInfo& info : vars) {
    if (info.kind == VarKind::kAny) {
      return Status::InvalidArgument("cannot infer the kind of ?" + info.name +
                                     "; add an IS clause");
    }
  }

  if (!query.target_var.empty()) {
    ex->target = FindVar(vars, query.target_var);
    if (ex->target == SIZE_MAX) {
      return Status::InvalidArgument("unknown target variable ?" + query.target_var);
    }
  } else if (query.target != Target::kGraph) {
    // The first declared variable of the result kind; COUNT takes any kind.
    // GRAPH has no target: all variables participate.
    const bool any_kind = query.target == Target::kCount;
    const VarKind want =
        query.target == Target::kReferents ? VarKind::kReferent : VarKind::kContent;
    for (size_t v = 0; v < vars.size(); ++v) {
      if ((any_kind || vars[v].kind == want) &&
          (ex->target == SIZE_MAX ||
           vars[v].declaration_index < vars[ex->target].declaration_index)) {
        ex->target = v;
      }
    }
    if (ex->target == SIZE_MAX && !any_kind) {
      return Status::InvalidArgument("no variable of the result kind in WHERE block");
    }
  }
  if (query.target == Target::kFragments) {
    GRAPHITTI_ASSIGN_OR_RETURN(ex->fragment_xpath, xml::XPathExpr::Compile(query.return_xpath));
  }
  return Status::OK();
}

/// Stage 2, the typed subqueries: each constrained variable streams its
/// candidates. A variable with no narrowing filter never enumerates here:
/// its domain is "every node of the kind", answered by a kind check during
/// joins and a store count for ordering.
Status StreamCandidates(Execution* ex) {
  const annotation::AnnotationStore& store = *ex->ctx.store;
  for (VarInfo& info : ex->vars) {
    if (!info.filters.empty()) {
      GRAPHITTI_RETURN_NOT_OK(Materialize(ex, &info));
      if (ex->stop != StopReason::kCompleted) return Status::OK();
      info.candidate_count = info.streamed.size();
      continue;
    }
    info.unconstrained = true;
    switch (info.kind) {
      case VarKind::kContent:
        info.candidate_count = store.size();
        break;
      case VarKind::kReferent:
        info.candidate_count = store.num_referents();
        break;
      case VarKind::kTerm:
      case VarKind::kObject:
        info.candidate_count = ex->ctx.graph->CountNodesOfKind(ToNodeKind(info.kind));
        break;
      case VarKind::kAny:
        return Status::Internal("unreachable: unresolved kind");
    }
  }
  return Status::OK();
}

/// Stage 3: decomposes the CONSTRAIN conditions into pairwise predicates.
Status DecomposeConstraints(Execution* ex) {
  std::vector<size_t> args;  // one constraint's variables
  for (const Constraint& cons : ex->query.constraints) {
    args.clear();
    for (const std::string& name : cons.vars) {
      size_t v = FindVar(ex->vars, name);
      if (v == SIZE_MAX) {
        return Status::InvalidArgument("constraint references unknown variable ?" + name);
      }
      if (ex->vars[v].kind != VarKind::kReferent) {
        return Status::TypeError("constraints apply to referent variables (?" + name + ")");
      }
      args.push_back(v);
    }
    switch (cons.kind) {
      case Constraint::Kind::kConsecutive:
      case Constraint::Kind::kSameDomain:
        // Along the listed order; consecutive adds "before" to each pair.
        for (size_t i = 0; i + 1 < args.size(); ++i) {
          if (cons.kind == Constraint::Kind::kConsecutive) {
            ex->pair_preds.push_back({PairPredicate::Kind::kBefore, args[i], args[i + 1]});
          }
          ex->pair_preds.push_back({PairPredicate::Kind::kSameDomain, args[i], args[i + 1]});
        }
        break;
      case Constraint::Kind::kDisjoint:
      case Constraint::Kind::kOverlapping: {
        const PairPredicate::Kind kind = cons.kind == Constraint::Kind::kDisjoint
                                             ? PairPredicate::Kind::kDisjoint
                                             : PairPredicate::Kind::kOverlapping;
        for (size_t i = 0; i < args.size(); ++i) {
          for (size_t j = i + 1; j < args.size(); ++j) {
            ex->pair_preds.push_back({kind, args[i], args[j]});
          }
        }
        break;
      }
    }
  }
  return Status::OK();
}

/// Stage 4, the feasible order: binds variables most-selective-first,
/// preferring variables connected to already-placed ones (joinable through
/// the a-graph). The naive order is declaration order.
void Order(Execution* ex) {
  const std::vector<VarInfo>& vars = ex->vars;
  std::vector<size_t>& order = ex->order;
  if (!ex->options.use_selectivity_order) {
    for (size_t v = 0; v < vars.size(); ++v) order.push_back(v);
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return vars[a].declaration_index < vars[b].declaration_index;
    });
    return;
  }
  std::vector<bool> placed(vars.size(), false);
  auto connected_to_placed = [&](size_t v) {
    for (const EdgeInfo& e : ex->edges) {
      size_t other = Opposite(e.a, e.b, v);
      if (other != SIZE_MAX && placed[other]) return true;
    }
    return false;
  };
  while (order.size() < vars.size()) {
    size_t best = SIZE_MAX;
    bool best_connected = false;
    for (size_t v = 0; v < vars.size(); ++v) {
      if (placed[v]) continue;
      bool conn = connected_to_placed(v);
      // Prefer connected variables; among equals, smaller candidate set.
      if (best == SIZE_MAX || std::make_tuple(!conn, vars[v].candidate_count) <
                                  std::make_tuple(!best_connected, vars[best].candidate_count)) {
        best = v;
        best_connected = conn;
      }
    }
    order.push_back(best);
    placed[best] = true;
  }
}

/// Semi-join reduction of a reused cartesian level that binds `v`: before
/// the domain is rescanned for every parent row, drop each candidate of v
/// with no neighbour along a label edge to a not-yet-bound variable w that
/// passes w's own membership test. A dropped candidate's rows would die
/// when w is bound through that edge, so the final table, and every item,
/// is unchanged; only the intermediate rows shrink. Each edge compacts
/// `domain` in place, so the survivors stay ascending.
void SemiJoinReduce(Execution* ex, size_t v, std::vector<NodeRef>* domain,
                    std::vector<NodeRef>* nbr_buf) {
  for (const EdgeInfo& e : ex->edges) {
    if (ex->stop != StopReason::kCompleted) break;
    size_t w = Opposite(e.a, e.b, v);
    if (e.label.empty() || w == SIZE_MAX || w == v || ex->vars[w].bound()) continue;
    VarInfo& winfo = ex->vars[w];
    winfo.EnsureSet();
    size_t kept = 0;
    for (NodeRef cand : *domain) {
      if (Tripped(&ex->gate, &ex->stop)) break;
      nbr_buf->clear();
      ex->ctx.graph->AppendNeighbors(cand, /*directed=*/false, e.label, nbr_buf);
      if (std::any_of(nbr_buf->begin(), nbr_buf->end(),
                      [&](NodeRef n) { return winfo.Admits(n); })) {
        (*domain)[kept++] = cand;
      }
    }
    domain->resize(kept);
  }
}

/// Stage 5: the join on the columnar binding table, one level per variable
/// in `order`. Extending a variable appends (value, parent) pairs to one
/// column; prior bindings are shared through parent links and never
/// copied. The level's column is recorded in the variable's `column`.
Status Join(Execution* ex, ExecutionStats* stats) {
  const annotation::AnnotationStore& store = *ex->ctx.store;
  const agraph::AGraph& graph = *ex->ctx.graph;
  const ExecutorOptions& options = ex->options;
  BindingTable& table = ex->table;

  // Join scratch, reused across rows and levels so steady-state per-row
  // work allocates nothing.
  std::vector<NodeRef> row_buf;
  std::vector<NodeRef> domain_buf;  // a multi-edge level's semi-joined domain
  std::vector<NodeRef> nbr_buf;
  std::vector<NodeRef> reduced_buf;  // a cartesian level's semi-join-reduced domain
  // A constrained cartesian level's referents, aligned with its domain.
  std::vector<const annotation::Referent*> cartesian_refs;
  // lint: allow-map(multi-edge join scratch; cleared per row, never shrinks)
  std::unordered_set<NodeRef, NodeRefHash> nbr_set;
  // Each level's first-edge domains, memoized on the bound node: many rows
  // bind the same node in that edge's column, and the filtered+sorted
  // neighbour domain is a pure function of that node.
  // lint: allow-map(per-query memo; hashed, bounded by visited nodes)
  std::unordered_map<NodeRef, std::vector<NodeRef>, NodeRefHash> domain_cache;
  ReachCache reach(graph);
  ReferentCache referent_cache;
  auto referent_of = [&](NodeRef n) -> const annotation::Referent* {
    auto [it, inserted] = referent_cache.try_emplace(n.id, nullptr);
    if (inserted) it->second = store.GetReferent(n.id);
    return it->second;
  };

  // A pairwise constraint that becomes fully bound with the level's
  // variable, with the other side's column resolved once per level and its
  // referent once per parent row.
  struct BoundPred {
    PairPredicate::Kind kind;
    size_t other_col;
    bool v_is_a;
    const annotation::Referent* other = nullptr;
  };
  std::vector<BoundPred> bound_preds;
  // Edges from the level's variable to bound ones, with the bound column.
  std::vector<std::pair<const EdgeInfo*, size_t>> join_edges;
  std::vector<std::pair<const EdgeInfo*, size_t>> path_edges;  // CONNECTED joins

  for (size_t v : ex->order) {
    VarInfo& info = ex->vars[v];
    stats->binding_order.push_back(info.name);
    stats->candidate_counts.push_back(info.candidate_count);

    join_edges.clear();
    path_edges.clear();
    for (const EdgeInfo& e : ex->edges) {
      size_t other = Opposite(e.a, e.b, v);
      if (other == SIZE_MAX || !ex->vars[other].bound()) continue;
      auto& list = e.clause->kind == Clause::Kind::kConnected ? path_edges : join_edges;
      list.emplace_back(&e, ex->vars[other].column);
    }
    bound_preds.clear();
    for (const PairPredicate& p : ex->pair_preds) {
      size_t other = Opposite(p.a, p.b, v);
      if (other == SIZE_MAX || !ex->vars[other].bound()) continue;
      bound_preds.push_back({p.kind, ex->vars[other].column, p.a == v});
    }

    // A level with no join edge extends every parent row by the variable's
    // ascending candidates, materialized here if streaming skipped them.
    const std::vector<NodeRef>* cartesian = nullptr;
    if (join_edges.empty()) {
      if (!info.streamed_ready) GRAPHITTI_RETURN_NOT_OK(Materialize(ex, &info));
      cartesian = &info.streamed;
    } else {
      info.EnsureSet();
    }
    domain_cache.clear();  // keyed on bound node; valid for one level only

    size_t prev_rows = table.BeginColumn();
    if (prev_rows > UINT32_MAX) {
      return Status::OutOfRange("binding table exceeds 2^32 rows per level");
    }
    // A first level (one parent row) is not reduced: there the pass would
    // only move the neighbour scans of later levels earlier.
    if (cartesian != nullptr && prev_rows > 1) {
      reduced_buf.assign(cartesian->begin(), cartesian->end());
      cartesian = &reduced_buf;
      SemiJoinReduce(ex, v, &reduced_buf, &nbr_buf);
    }
    // A constrained cartesian level rescans one domain for every parent
    // row, so its referents are resolved once here.
    cartesian_refs.clear();
    if (cartesian != nullptr && !bound_preds.empty()) {
      cartesian_refs.reserve(cartesian->size());
      for (NodeRef n : *cartesian) cartesian_refs.push_back(store.GetReferent(n.id));
    }

    // Extend each parent row: compute the candidate domain, filter it
    // through the bound pairwise predicates and CONNECTED reachability, and
    // append each surviving candidate to the open column, which grows while
    // ReadParentRow reads only the columns before it. The row limit and the
    // byte budget are checked as the column grows; a governance stop still
    // closes the column, since EndColumn after partial appends is
    // well-defined and folds this level's size into the peaks.
    for (size_t row = 0; row < prev_rows && ex->stop == StopReason::kCompleted; ++row) {
      table.ReadParentRow(row, &row_buf);
      for (BoundPred& bp : bound_preds) bp.other = referent_of(row_buf[bp.other_col]);

      // A join level's domain: the first edge's memoized one, hash
      // semi-joined along any further edges in a copy.
      const std::vector<NodeRef>* domain = cartesian;
      if (!join_edges.empty()) {
        const auto& [e, col] = join_edges.front();
        NodeRef bound_node = row_buf[col];
        auto [it, inserted] = domain_cache.try_emplace(bound_node);
        if (inserted) {
          nbr_buf.clear();
          graph.AppendNeighbors(bound_node, /*directed=*/false, e->label, &nbr_buf);
          for (NodeRef n : nbr_buf) {
            if (info.Admits(n)) it->second.push_back(n);
          }
          // Deterministic extension order.
          std::sort(it->second.begin(), it->second.end());
        }
        domain = &it->second;
        if (join_edges.size() > 1) {
          domain_buf.assign(it->second.begin(), it->second.end());
          for (size_t k = 1; k < join_edges.size() && !domain_buf.empty(); ++k) {
            nbr_buf.clear();
            graph.AppendNeighbors(row_buf[join_edges[k].second], /*directed=*/false,
                                  join_edges[k].first->label, &nbr_buf);
            nbr_set.clear();
            nbr_set.insert(nbr_buf.begin(), nbr_buf.end());
            domain_buf.erase(std::remove_if(domain_buf.begin(), domain_buf.end(),
                                            [&](NodeRef n) { return nbr_set.count(n) == 0; }),
                             domain_buf.end());
          }
          domain = &domain_buf;
        }
      }

      for (size_t i = 0; i < domain->size(); ++i) {
        NodeRef cand = (*domain)[i];
        if (Tripped(&ex->gate, &ex->stop)) break;
        // Pairwise constraints that become fully bound with v = cand, on
        // cand's referent: resolved per level for a cartesian domain, once
        // per candidate for a join-edge one.
        bool ok = true;
        if (!bound_preds.empty()) {
          const annotation::Referent* ref =
              cartesian != nullptr ? cartesian_refs[i] : referent_of(cand);
          for (const BoundPred& bp : bound_preds) {
            if (!(bp.v_is_a ? EvalPair(bp.kind, ref, bp.other)
                            : EvalPair(bp.kind, bp.other, ref))) {
              ok = false;
              break;
            }
          }
        }
        if (!ok) continue;
        // CONNECTED joins: path existence in the a-graph, answered by the
        // per-bound-node reachability cache.
        for (const auto& [e, col] : path_edges) {
          size_t hops = e->clause->max_hops == SIZE_MAX ? options.default_connected_hops
                                                        : e->clause->max_hops;
          if (!reach.Reaches(row_buf[col], hops, cand)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;

        table.Append(cand, row);
        if (table.OpenRows() > options.max_intermediate_rows) {
          TripStop(&ex->stop, StopReason::kRowLimit);
          break;
        }
        if (options.memory_budget_bytes != 0 && (table.OpenRows() & 63) == 0 &&
            table.ByteSize() > options.memory_budget_bytes) {
          TripStop(&ex->stop, StopReason::kMemoryBudget);
          break;
        }
      }
    }
    table.EndColumn();
    if (options.memory_budget_bytes != 0 && table.ByteSize() > options.memory_budget_bytes) {
      TripStop(&ex->stop, StopReason::kMemoryBudget);
    }
    info.column = table.num_columns() - 1;
    stats->level_rows.push_back(table.NumRows());
    stats->rows_examined += table.NumRows();
    if (ex->stop != StopReason::kCompleted || table.NumRows() == 0) break;
  }
  stats->peak_rows = table.peak_rows();
  stats->peak_bytes = table.peak_bytes();
  return Status::OK();
}

/// Stage 6: collates the final binding rows into items that carry ids
/// only; labels and substructures are read on demand (QueryResult::LabelOf
/// / SubstructureOf). One flat key set dedups every target: a NodeRef
/// target keys on NodeRefHash, a splitmix64 bijection of an injective
/// packing, so its dedup is exact; GRAPH keys on a row hash. A governance
/// trip keeps the items collated so far (a partial page is still
/// renderable).
void Collate(Execution* ex, QueryResult* result) {
  const annotation::AnnotationStore& store = *ex->ctx.store;
  const BindingTable& table = ex->table;
  const Target target = ex->query.target;
  // Rows of the final (closed) column; a join level that emptied out (or a
  // target variable the loop never reached) contributes no rows.
  const size_t final_rows = table.num_columns() == 0 ? 1 : table.NumRows();
  std::vector<NodeRef> row_buf;
  util::KeySet seen;

  if (target != Target::kGraph) {
    // One item per distinct value of the target column (one per XPath
    // match for FRAGMENTS); COUNT counts them instead.
    const size_t col = ex->target == SIZE_MAX ? SIZE_MAX : ex->vars[ex->target].column;
    if (col != SIZE_MAX && (target == Target::kContents || target == Target::kReferents)) {
      result->items.reserve(final_rows);
    }
    for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
      if (Tripped(&ex->gate, &ex->stop)) break;
      table.ReadRow(row, &row_buf);
      NodeRef n = row_buf[col];
      if (!seen.Insert(NodeRefHash{}(n))) continue;
      if (target == Target::kContents) {
        result->items.emplace_back().content_id = n.id;
      } else if (target == Target::kReferents) {
        result->items.emplace_back().referent_id = n.id;
      } else if (target == Target::kFragments) {
        const annotation::Annotation* ann = store.Get(n.id);
        if (ann == nullptr) continue;
        const xml::XmlDocument& content = store.ContentOf(*ann);
        if (content.root() == nullptr) continue;
        for (const xml::XPathMatch& m : ex->fragment_xpath.Evaluate(content.root())) {
          ResultItem& item = result->items.emplace_back();
          item.content_id = n.id;
          item.fragment = m.is_attribute ? m.value : m.node->ToString(/*pretty=*/false);
        }
      }
    }
    if (target == Target::kCount) result->items.emplace_back().count = seen.size();
    return;
  }

  // GRAPH: one row handle per distinct binding row ("each connected
  // subgraph forms a result page", §III). A row is sorted and deduplicated
  // in place, and its distinctness is keyed on a splitmix64-combined hash
  // of that terminal set: O(row) per row, no per-row allocation. A 64-bit
  // collision would drop one subgraph; at the max_intermediate_rows
  // default (2^20 rows) the odds are ~2^-25 per query, accepted for the
  // collation speed.
  //
  // The key set, the terminal pool and the row offsets are sized once from
  // the final row count, which bounds the distinct rows; a row holds at
  // most one terminal per column. First sightings append their terminals
  // to the pool, and after the loop the pool moves into the result,
  // immutable and shared by its copies, while `items` is sized once and
  // each handle views its slice: no item, vector or copy per row. The
  // subgraphs themselves are NOT built here: MaterializePage runs the
  // (batched) Steiner heuristic for just the rows of the requested page.
  // Connectivity is therefore also decided lazily — a row whose terminals
  // do not share a component keeps its handle and materializes to an empty
  // subgraph, which LabelOf reads as "subgraph(disconnected)".
  std::vector<NodeRef> pool;  // terminals of each distinct row, in order
  std::vector<size_t> ends;   // end offset of each distinct row in pool
  pool.reserve(final_rows * table.num_columns());
  ends.reserve(final_rows);
  seen.Reserve(final_rows);
  for (size_t row = 0; row < final_rows; ++row) {
    if (Tripped(&ex->gate, &ex->stop)) break;
    table.ReadRow(row, &row_buf);
    SortRow(row_buf.data(), row_buf.data() + row_buf.size());
    row_buf.erase(std::unique(row_buf.begin(), row_buf.end()), row_buf.end());
    uint64_t h = util::Mix64(0x51ab7c1ed15ull ^ row_buf.size());
    for (NodeRef t : row_buf) h = util::Mix64(h ^ NodeRefHash{}(t));
    if (!seen.Insert(h)) continue;
    pool.insert(pool.end(), row_buf.begin(), row_buf.end());
    ends.push_back(pool.size());
  }
  auto shared = std::make_shared<const std::vector<NodeRef>>(std::move(pool));
  result->items.resize(ends.size());
  size_t begin = 0;
  for (size_t i = 0; i < ends.size(); ++i) {
    result->items[i].terminals = {shared->data() + begin, ends[i] - begin};
    begin = ends[i];
  }
  result->terminal_pool = std::move(shared);
}

}  // namespace

Result<QueryResult> Executor::ExecuteText(std::string_view query_text) const {
  GRAPHITTI_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  return Execute(query);
}

Result<QueryResult> Executor::Execute(const Query& query) const {
  QueryResult result;
  GRAPHITTI_RETURN_NOT_OK(ExecuteInto(query, &result));
  if (result.stats.stop_reason != StopReason::kCompleted) {
    return StopStatus(result.stats.stop_reason, options_);
  }
  return result;
}

util::Status Executor::ExecuteInto(const Query& query, QueryResult* out) const {
  if (ctx_.store == nullptr || ctx_.indexes == nullptr || ctx_.graph == nullptr) {
    return Status::InvalidArgument("QueryContext must provide store, indexes and graph");
  }
  QueryResult& result = *out;
  result.target = query.target;
  result.store = ctx_.store;
  ExecutionStats& stats = result.stats;
  Execution ex(ctx_, options_, query);
  // Records the execution's stop reason; true when it is a governance stop.
  auto stopped = [&] {
    stats.stop_reason = ex.stop;
    return ex.stop != StopReason::kCompleted;
  };

  // Unamortized entry check: a query arriving with an expired deadline or a
  // pre-cancelled token must stop before any work, regardless of corpus
  // size — the amortized checks below only read the clock every
  // kCheckStride iterations, which a small scan may never reach.
  Status gs = ex.gate.CheckNow();
  if (!gs.ok()) {
    stats.stop_reason = ReasonFromStatus(gs);
    return Status::OK();
  }

  GRAPHITTI_RETURN_NOT_OK(Plan(&ex));
  if (ex.target != SIZE_MAX) result.target_var = ex.vars[ex.target].name;
  GRAPHITTI_RETURN_NOT_OK(StreamCandidates(&ex));
  if (stopped()) return Status::OK();
  GRAPHITTI_RETURN_NOT_OK(DecomposeConstraints(&ex));
  Order(&ex);
  GRAPHITTI_RETURN_NOT_OK(Join(&ex, &stats));
  if (stopped()) return Status::OK();
  Collate(&ex, &result);
  stats.items_produced = result.items.size();

  // Paging: slice the requested page and materialize it (for GRAPH targets
  // this is where — and the only place where — connection subgraphs get
  // built).
  size_t page_size = query.limit;
  if (page_size == SIZE_MAX) {
    page_size = (query.target == Target::kGraph) ? 1 : result.items.size();
  }
  if (page_size == 0) page_size = 1;
  result.page_size = page_size;
  result.total_pages = (result.items.size() + page_size - 1) / page_size;
  // A tripped collation keeps its partial items but skips materialization:
  // the budget is already gone.
  if (stopped()) return Status::OK();
  Status ms = MaterializePage(&result, query.page);
  if (!ms.ok()) {
    StopReason r = ReasonFromStatus(ms);
    if (r == StopReason::kCompleted) return ms;  // hard error, not governance
    stats.stop_reason = r;
  }
  return Status::OK();
}

util::Status Executor::MaterializePage(QueryResult* result, size_t page) const {
  if (result->page_size == 0) {
    return Status::InvalidArgument("result has no page size (not produced by Execute?)");
  }
  if (result->items.empty()) {
    // Empty results have no pages: total_pages == 0, page 0, empty slice.
    result->page = 0;
    result->page_first = 0;
    result->page_count = 0;
    return Status::OK();
  }
  // Clamp into [1, total_pages]: a programmatically built Query may carry
  // page == 0 (the parser rejects it, the Context API cannot), which would
  // otherwise underflow the slice arithmetic below.
  if (page == 0) page = 1;
  result->page = std::min(page, result->total_pages);
  size_t begin = (result->page - 1) * result->page_size;
  size_t end = std::min(result->items.size(), begin + result->page_size);
  result->page_first = begin;
  result->page_count = end - begin;
  if (result->target != Target::kGraph) return Status::OK();

  if (ctx_.graph == nullptr) {
    return Status::InvalidArgument("QueryContext must provide a graph");
  }
  // One batched connect for the whole result, cached across flips: every
  // distinct terminal ever materialized grows its BFS shortest-path tree
  // once, shared by all of this page's rows AND every later page. The
  // result's epoch pin (QueryResult::snapshot, set by core::Graphitti)
  // keeps the graph the batch borrows alive and frozen, so flipping back
  // to a page long after later commits rebuilds nothing and changes
  // nothing. The batch keeps only what decides answers (the default label
  // filter and hop budget); every Connect below is governed by this call's
  // deadline and token, so the budget of the query that built the batch
  // never stops a later flip.
  if (result->connect_batch == nullptr ||
      result->connect_batch->graph() != ctx_.graph) {
    result->connect_batch = std::make_shared<agraph::ConnectBatch>(*ctx_.graph);
  }
  agraph::ConnectBatch& batch = *result->connect_batch;
  const size_t trees_before = batch.trees_built();
  util::GovernanceGate gate(options_.deadline, options_.cancel);
  // ConnectBatch::Connect takes a vector: each row's view is copied into
  // this one, reused across the page.
  std::vector<NodeRef> row;
  for (size_t i = begin; i < end; ++i) {
    ResultItem& item = result->items[i];
    if (item.subgraph_ready) continue;
    // Each row's connect is already expensive; check unamortized. The page
    // materialized so far stays valid (subgraph_ready per item), so a
    // governance abort here resumes exactly where it left off on retry.
    {
      Status gs = gate.CheckNow();
      if (!gs.ok()) {
        result->stats.connect_trees_built += batch.trees_built() - trees_before;
        return gs;
      }
    }
    row.assign(item.terminals.begin(), item.terminals.end());
    auto sg = batch.Connect(row, options_.deadline, options_.cancel);
    if (!sg.ok() && (sg.status().IsDeadlineExceeded() || sg.status().IsCancelled() ||
                     sg.status().IsResourceExhausted())) {
      // Governance abort mid-connect: not a disconnected row — leave the
      // item unmaterialized for a retry and surface the status.
      result->stats.connect_trees_built += batch.trees_built() - trees_before;
      return sg.status();
    }
    item.subgraph_ready = true;
    if (sg.ok()) item.subgraph = std::move(sg).ValueUnsafe();
    ++result->stats.subgraphs_materialized;
  }
  result->stats.connect_trees_built += batch.trees_built() - trees_before;
  return Status::OK();
}

Result<std::string> Executor::Explain(const Query& query) const {
  // ExecuteInto rather than Execute: a governance stop still renders the
  // partial plan (with its stop reason), instead of erasing the very
  // diagnostics that explain why the query was slow.
  QueryResult result;
  GRAPHITTI_RETURN_NOT_OK(ExecuteInto(query, &result));
  std::string out;
  out += "query: " + query.ToString() + "\n";
  out += "plan (" + std::string(options_.use_selectivity_order ? "feasible order"
                                                               : "declaration order") +
         "):\n";
  for (size_t i = 0; i < result.stats.binding_order.size(); ++i) {
    out += "  " + std::to_string(i + 1) + ". bind ?" + result.stats.binding_order[i] +
           "  (candidates: " + std::to_string(result.stats.candidate_counts[i]) +
           ", rows: " + std::to_string(result.stats.level_rows[i]) + ")\n";
  }
  out += "rows examined: " + std::to_string(result.stats.rows_examined) + "\n";
  out += "peak rows: " + std::to_string(result.stats.peak_rows) +
         " (binding table: " + std::to_string(result.stats.peak_bytes) + " bytes)\n";
  out += "items produced: " + std::to_string(result.stats.items_produced) + "\n";
  out += "pages: " + std::to_string(result.total_pages) +
         " (page size " + std::to_string(result.page_size) + ")\n";
  if (query.target == Target::kGraph) {
    out += "subgraphs materialized: " +
           std::to_string(result.stats.subgraphs_materialized) + " (page " +
           std::to_string(result.page) + " only; connect trees built: " +
           std::to_string(result.stats.connect_trees_built) + ")\n";
  }
  out += "stopped: " + std::string(StopReasonName(result.stats.stop_reason)) + "\n";
  return out;
}

Result<std::string> Executor::ExplainText(std::string_view query_text) const {
  GRAPHITTI_ASSIGN_OR_RETURN(Query query, ParseQuery(query_text));
  return Explain(query);
}

}  // namespace query
}  // namespace graphitti
