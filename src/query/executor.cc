#include "query/executor.h"

#include <algorithm>
#include <map>
#include <set>
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
};

/// Pairwise constraint predicate between two bound variables.
struct PairPredicate {
  enum class Kind { kBefore, kDisjoint, kOverlapping, kSameDomain };
  Kind kind;
  std::string var_a;
  std::string var_b;
};

/// Edge clause between two variables, normalized.
struct EdgeInfo {
  const Clause* clause;
  std::string var_a;  // clause->var
  std::string var_b;  // clause->var2
  std::string label;  // a-graph edge label ("" for CONNECTED)
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

/// Borrowed referent pointers memoized per execution, so the join pays one
/// store lookup per distinct bound referent and join-edge candidate instead
/// of one per binding row.
// lint: allow-map(per-query cache; hashed, sized by candidate count)
using ReferentCache = std::unordered_map<uint64_t, const annotation::Referent*>;

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
  const annotation::AnnotationStore& store = *ctx_.store;
  const agraph::AGraph& graph = *ctx_.graph;

  // Governance for every stage below: one gate amortizes the deadline and
  // cancellation checks of all loops, and `stop` records the first of
  // deadline expiry, cancellation, the row limit or the byte budget.
  util::GovernanceGate gate(options_.deadline, options_.cancel);
  StopReason stop = StopReason::kCompleted;

  // Unamortized entry check: a query arriving with an expired deadline or a
  // pre-cancelled token must stop before any work, regardless of corpus
  // size — the amortized checks below only read the clock every
  // kCheckStride iterations, which a small scan may never reach.
  {
    Status gs = gate.CheckNow();
    if (!gs.ok()) {
      stats.stop_reason = ReasonFromStatus(gs);
      return Status::OK();
    }
  }

  // ------------------------------------------------------------------
  // 1. Collect variables, infer kinds, split clauses into per-variable
  //    subqueries and inter-variable edges (the §II decomposition).
  // ------------------------------------------------------------------
  // lint: allow-map(query vars: a handful per statement, ordered iteration)
  std::map<std::string, VarInfo> vars;
  std::vector<EdgeInfo> edges;

  auto touch = [&](const std::string& name, size_t decl) -> VarInfo* {
    auto [it, inserted] = vars.try_emplace(name);
    if (inserted) {
      it->second.name = name;
      it->second.declaration_index = decl;
    }
    return &it->second;
  };

  for (size_t i = 0; i < query.clauses.size(); ++i) {
    const Clause& c = query.clauses[i];
    VarInfo* subject = touch(c.var, i);
    KindExpectation expect = ExpectationFor(c);
    GRAPHITTI_RETURN_NOT_OK(MergeKind(subject, expect.subject));
    if (!c.var2.empty()) {
      VarInfo* object = touch(c.var2, i);
      GRAPHITTI_RETURN_NOT_OK(MergeKind(object, expect.object));
      edges.push_back({&c, c.var, c.var2, std::string(EdgeLabelFor(c.kind))});
    } else if (c.kind != Clause::Kind::kIs) {
      subject->filters.push_back(&c);
    }
  }

  for (auto& [name, info] : vars) {
    if (info.kind == VarKind::kAny) {
      return Status::InvalidArgument("cannot infer the kind of ?" + name +
                                     "; add an IS clause");
    }
  }

  // Resolve the result target now, so an invalid target fails before any
  // candidate streaming or join work (and before a governance stop that
  // the join could hit first).
  std::string target_var = query.target_var;
  if (target_var.empty()) {
    if (query.target == Target::kCount) {
      // COUNT defaults to the first declared variable of any kind.
      size_t best_decl = SIZE_MAX;
      for (const auto& [name, info] : vars) {
        if (info.declaration_index < best_decl) {
          best_decl = info.declaration_index;
          target_var = name;
        }
      }
    } else if (query.target != Target::kGraph) {
      // kGraph keeps "" (all variables participate).
      VarKind want = VarKind::kContent;
      if (query.target == Target::kReferents) want = VarKind::kReferent;
      size_t best_decl = SIZE_MAX;
      for (const auto& [name, info] : vars) {
        if (info.kind == want && info.declaration_index < best_decl) {
          best_decl = info.declaration_index;
          target_var = name;
        }
      }
      if (target_var.empty()) {
        return Status::InvalidArgument("no variable of the result kind in WHERE block");
      }
    }
  } else if (vars.find(target_var) == vars.end()) {
    return Status::InvalidArgument("unknown target variable ?" + target_var);
  }
  result.target_var = target_var;
  xml::XPathExpr fragment_xpath;
  if (query.target == Target::kFragments) {
    GRAPHITTI_ASSIGN_OR_RETURN(fragment_xpath, xml::XPathExpr::Compile(query.return_xpath));
  }

  // ------------------------------------------------------------------
  // 2. Candidate enumeration per variable (the typed subqueries), streamed
  //    into membership sets. Variables with no narrowing filter never
  //    enumerate: their domain is "every node of the kind", answered by a
  //    kind check during joins and a store count for ordering.
  // ------------------------------------------------------------------
  for (auto& [name, info] : vars) {
    if (info.filters.empty()) {
      info.unconstrained = true;
      switch (info.kind) {
        case VarKind::kContent:
          info.candidate_count = store.size();
          break;
        case VarKind::kReferent:
          info.candidate_count = store.num_referents();
          break;
        case VarKind::kTerm:
          info.candidate_count = graph.CountNodesOfKind(NodeKind::kOntologyTerm);
          break;
        case VarKind::kObject:
          info.candidate_count = graph.CountNodesOfKind(NodeKind::kDataObject);
          break;
        case VarKind::kAny:
          return Status::Internal("unreachable: unresolved kind");
      }
      continue;
    }
    bool ordered = false;
    GRAPHITTI_RETURN_NOT_OK(ForEachCandidate(
        ctx_, info, &ordered, &gate, &stop,
        [&info = info](NodeRef n) { info.streamed.push_back(n); }));
    if (stop != StopReason::kCompleted) {
      stats.stop_reason = stop;
      return Status::OK();
    }
    if (!ordered) {
      std::sort(info.streamed.begin(), info.streamed.end());
      info.streamed.erase(std::unique(info.streamed.begin(), info.streamed.end()),
                          info.streamed.end());
    }
    info.streamed_ready = true;
    info.candidate_count = info.streamed.size();
  }

  // Membership test for hash semi-joins: candidate-set probe (built lazily
  // at bind time), or a kind check when the variable is unconstrained
  // (a-graph neighbours of the right kind are committed store entries by
  // construction).
  auto is_candidate = [&](const VarInfo& info, NodeRef n) {
    if (info.unconstrained) return n.kind == ToNodeKind(info.kind);
    return info.candidate_set.count(n) > 0;
  };
  auto ensure_candidate_set = [&](VarInfo& info) {
    if (info.unconstrained || info.set_ready) return;
    info.set_ready = true;
    info.candidate_set.reserve(info.streamed.size());
    info.candidate_set.insert(info.streamed.begin(), info.streamed.end());
  };

  // Sorted candidate vector for variables bound without a join edge
  // (cartesian extension needs a deterministic ascending order). For
  // unconstrained variables it materializes lazily from the stores.
  auto sorted_candidates = [&](VarInfo& info) -> const std::vector<NodeRef>& {
    if (info.streamed_ready) return info.streamed;
    info.streamed_ready = true;
    switch (info.kind) {
      case VarKind::kContent:
        info.streamed.reserve(store.size());
        store.ForEachAnnotation([&](AnnotationId id, const annotation::Annotation&) {
          info.streamed.push_back(NodeRef::Content(id));  // ascending by id
        });
        break;
      case VarKind::kReferent:
        info.streamed.reserve(store.num_referents());
        store.ForEachReferent([&](ReferentId id, const annotation::Referent&) {
          info.streamed.push_back(NodeRef::Referent(id));  // ascending by id
        });
        break;
      case VarKind::kTerm:
      case VarKind::kObject:
        graph.ForEachNodeOfKind(ToNodeKind(info.kind),
                                [&](NodeRef n) { info.streamed.push_back(n); });
        std::sort(info.streamed.begin(), info.streamed.end());
        break;
      case VarKind::kAny:
        break;
    }
    return info.streamed;
  };

  // ------------------------------------------------------------------
  // 3. Decompose constraints into pairwise predicates.
  // ------------------------------------------------------------------
  std::vector<PairPredicate> pair_preds;
  for (const Constraint& cons : query.constraints) {
    for (const std::string& v : cons.vars) {
      auto it = vars.find(v);
      if (it == vars.end()) {
        return Status::InvalidArgument("constraint references unknown variable ?" + v);
      }
      if (it->second.kind != VarKind::kReferent) {
        return Status::TypeError("constraints apply to referent variables (?" + v + ")");
      }
    }
    switch (cons.kind) {
      case Constraint::Kind::kConsecutive:
        for (size_t i = 0; i + 1 < cons.vars.size(); ++i) {
          pair_preds.push_back({PairPredicate::Kind::kBefore, cons.vars[i], cons.vars[i + 1]});
          pair_preds.push_back(
              {PairPredicate::Kind::kSameDomain, cons.vars[i], cons.vars[i + 1]});
        }
        break;
      case Constraint::Kind::kDisjoint:
        for (size_t i = 0; i < cons.vars.size(); ++i) {
          for (size_t j = i + 1; j < cons.vars.size(); ++j) {
            pair_preds.push_back({PairPredicate::Kind::kDisjoint, cons.vars[i], cons.vars[j]});
          }
        }
        break;
      case Constraint::Kind::kOverlapping:
        for (size_t i = 0; i < cons.vars.size(); ++i) {
          for (size_t j = i + 1; j < cons.vars.size(); ++j) {
            pair_preds.push_back(
                {PairPredicate::Kind::kOverlapping, cons.vars[i], cons.vars[j]});
          }
        }
        break;
      case Constraint::Kind::kSameDomain:
        for (size_t i = 0; i + 1 < cons.vars.size(); ++i) {
          pair_preds.push_back(
              {PairPredicate::Kind::kSameDomain, cons.vars[i], cons.vars[i + 1]});
        }
        break;
    }
  }

  ReferentCache referent_cache;
  auto referent_of = [&](NodeRef n) -> const annotation::Referent* {
    auto [it, inserted] = referent_cache.try_emplace(n.id, nullptr);
    if (inserted) it->second = store.GetReferent(n.id);
    return it->second;
  };

  // ------------------------------------------------------------------
  // 4. Feasible order: bind variables most-selective-first, preferring
  //    variables connected to already-bound ones (joinable via a-graph).
  // ------------------------------------------------------------------
  std::vector<std::string> order;
  {
    // lint: allow-map(planner: a handful of variable names, ordered iteration)
    std::set<std::string> remaining;
    for (const auto& [name, _] : vars) remaining.insert(name);
    // lint: allow-map(planner: a handful of variable names)
    std::set<std::string> bound;

    auto connected_to_bound = [&](const std::string& v) {
      for (const EdgeInfo& e : edges) {
        if ((e.var_a == v && bound.count(e.var_b) > 0) ||
            (e.var_b == v && bound.count(e.var_a) > 0)) {
          return true;
        }
      }
      return false;
    };

    if (options_.use_selectivity_order) {
      while (!remaining.empty()) {
        std::string best;
        size_t best_size = SIZE_MAX;
        bool best_connected = false;
        for (const std::string& v : remaining) {
          bool conn = connected_to_bound(v);
          size_t size = vars[v].candidate_count;
          // Prefer connected variables; among equals, smaller candidate set.
          if (std::make_tuple(!conn, size) < std::make_tuple(!best_connected, best_size) ||
              best.empty()) {
            best = v;
            best_size = size;
            best_connected = conn;
          }
        }
        order.push_back(best);
        bound.insert(best);
        remaining.erase(best);
      }
    } else {
      // Naive: declaration order.
      std::vector<std::string> decl(remaining.begin(), remaining.end());
      std::sort(decl.begin(), decl.end(), [&](const std::string& a, const std::string& b) {
        return vars[a].declaration_index < vars[b].declaration_index;
      });
      order = std::move(decl);
    }
  }

  // ------------------------------------------------------------------
  // 5. Execute the join on the columnar binding table: extending a variable
  //    appends (value, parent) pairs to one column; prior bindings are
  //    shared through parent links and never copied.
  // ------------------------------------------------------------------
  // lint: allow-map(result columns: a handful per query, ordered header)
  std::map<std::string, size_t> var_column;
  BindingTable table;

  // Join scratch, reused across rows and levels so steady-state per-row
  // work allocates nothing; collation (step 6) reuses row_buf.
  std::vector<NodeRef> row_buf;
  std::vector<NodeRef> domain_buf;
  std::vector<NodeRef> nbr_buf;
  std::vector<NodeRef> reduced_buf;  // a cartesian level's semi-join-reduced domain
  // A constrained cartesian level's referents, aligned with its domain.
  std::vector<const annotation::Referent*> cartesian_refs;
  // lint: allow-map(multi-edge join scratch; cleared per row, never shrinks)
  std::unordered_set<NodeRef, NodeRefHash> nbr_set;
  // Single-edge join domains memoized per level: many rows bind the same
  // node in the join column, and the filtered+sorted neighbour domain is a
  // pure function of that node.
  // lint: allow-map(per-query memo; hashed, bounded by visited nodes)
  std::unordered_map<NodeRef, std::vector<NodeRef>, NodeRefHash> domain_cache;

  // Reachability cache for CONNECTED joins: one bounded BFS per distinct
  // (bound node, hop limit) instead of one FindPath per row.
  struct ReachKey {
    NodeRef node;
    size_t hops;
    bool operator==(const ReachKey& o) const { return node == o.node && hops == o.hops; }
  };
  struct ReachKeyHash {
    size_t operator()(const ReachKey& k) const {
      return static_cast<size_t>(util::Mix64(NodeRefHash{}(k.node) ^ (k.hops * 0x9e3779b97f4a7c15ull)));
    }
  };
  // lint: allow-map(reach set: probed once per CONNECTED candidate, one per memo entry)
  using ReachSet = std::unordered_set<NodeRef, NodeRefHash>;
  // lint: allow-map(per-query memo; hashed, bounded by visited nodes)
  std::unordered_map<ReachKey, ReachSet, ReachKeyHash> reach_cache;
  std::vector<NodeRef> reach_buf;

  auto reachable_from = [&](NodeRef node, size_t hops) -> const ReachSet& {
    auto [it, inserted] = reach_cache.try_emplace(ReachKey{node, hops});
    if (inserted) {
      agraph::PathOptions popt;
      popt.max_hops = hops;
      reach_buf.clear();
      graph.AppendReachable(node, popt, &reach_buf);
      it->second.insert(reach_buf.begin(), reach_buf.end());
    }
    return it->second;
  };

  for (const std::string& v : order) {
    VarInfo& info = vars[v];
    stats.binding_order.push_back(v);
    stats.candidate_counts.push_back(info.candidate_count);

    // Edges from v to already-bound variables, with the bound column
    // resolved once per variable instead of per row.
    std::vector<std::pair<const EdgeInfo*, size_t>> join_edges;
    std::vector<std::pair<const EdgeInfo*, size_t>> path_edges;  // CONNECTED joins
    for (const EdgeInfo& e : edges) {
      const std::string& other = (e.var_a == v) ? e.var_b : (e.var_b == v ? e.var_a : "");
      if (other.empty()) continue;
      auto col = var_column.find(other);
      if (col == var_column.end()) continue;
      if (e.clause->kind == Clause::Kind::kConnected) {
        path_edges.emplace_back(&e, col->second);
      } else {
        join_edges.emplace_back(&e, col->second);
      }
    }

    // Pairwise constraints that become fully bound with v, with the other
    // side's column resolved once per variable and its referent once per
    // parent row.
    struct BoundPred {
      PairPredicate::Kind kind;
      size_t other_col;
      bool v_is_a;
      const annotation::Referent* other = nullptr;
    };
    std::vector<BoundPred> bound_preds;
    for (const PairPredicate& p : pair_preds) {
      const std::string* other = nullptr;
      bool v_is_a = false;
      if (p.var_a == v) {
        other = &p.var_b;
        v_is_a = true;
      } else if (p.var_b == v) {
        other = &p.var_a;
      } else {
        continue;
      }
      auto it = var_column.find(*other);
      if (it == var_column.end()) continue;  // other not bound yet
      bound_preds.push_back({p.kind, it->second, v_is_a});
    }

    const std::vector<NodeRef>* cartesian = nullptr;
    if (join_edges.empty()) {
      cartesian = &sorted_candidates(info);
    } else {
      ensure_candidate_set(info);
    }
    domain_cache.clear();  // keyed on bound node; valid for one level only

    size_t prev_rows = table.BeginColumn();
    if (prev_rows > UINT32_MAX) {
      return Status::OutOfRange("binding table exceeds 2^32 rows per level");
    }

    // Semi-join reduction of a reused cartesian level: before the domain is
    // rescanned for every parent row, drop each candidate of v with no
    // neighbour along a label edge to a not-yet-bound variable w that
    // passes w's own membership test. A dropped candidate's rows would die
    // when w is bound through that edge, so the final table, and every
    // item, is unchanged; only the intermediate rows shrink. A first level
    // (one parent row) is left alone: there the pass would only move w's
    // neighbour scans earlier.
    if (cartesian != nullptr && prev_rows > 1) {
      reduced_buf.assign(cartesian->begin(), cartesian->end());
      cartesian = &reduced_buf;
      for (const EdgeInfo& e : edges) {
        const std::string& w = (e.var_a == v) ? e.var_b : (e.var_b == v ? e.var_a : v);
        if (e.label.empty() || w == v || var_column.count(w) > 0) continue;
        VarInfo& winfo = vars[w];
        ensure_candidate_set(winfo);
        // Compacts in place, so the survivors stay ascending.
        size_t kept = 0;
        for (NodeRef cand : reduced_buf) {
          if (Tripped(&gate, &stop)) break;
          nbr_buf.clear();
          graph.AppendNeighbors(cand, /*directed=*/false, e.label, &nbr_buf);
          if (std::any_of(nbr_buf.begin(), nbr_buf.end(),
                          [&](NodeRef n) { return is_candidate(winfo, n); })) {
            reduced_buf[kept++] = cand;
          }
        }
        reduced_buf.resize(kept);
        if (stop != StopReason::kCompleted) break;
      }
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
    for (size_t row = 0; row < prev_rows && stop == StopReason::kCompleted; ++row) {
      table.ReadParentRow(row, &row_buf);
      for (BoundPred& bp : bound_preds) bp.other = referent_of(row_buf[bp.other_col]);

      const std::vector<NodeRef>* domain = cartesian;
      if (join_edges.size() == 1) {
        // Single-edge join: the filtered+sorted neighbour domain depends
        // only on the bound node, so memoize it per level.
        const auto& [e, col] = join_edges.front();
        NodeRef bound_node = row_buf[col];
        auto [it, inserted] = domain_cache.try_emplace(bound_node);
        if (inserted) {
          nbr_buf.clear();
          graph.AppendNeighbors(bound_node, /*directed=*/false, e->label, &nbr_buf);
          for (NodeRef n : nbr_buf) {
            if (is_candidate(info, n)) it->second.push_back(n);
          }
          // Deterministic extension order.
          std::sort(it->second.begin(), it->second.end());
        }
        domain = &it->second;
      } else if (!join_edges.empty()) {
        // Expand along the first edge (hash-filtered against v's candidate
        // domain), then hash semi-join along the rest.
        bool first = true;
        for (const auto& [e, col] : join_edges) {
          NodeRef bound_node = row_buf[col];
          nbr_buf.clear();
          graph.AppendNeighbors(bound_node, /*directed=*/false, e->label, &nbr_buf);
          if (first) {
            domain_buf.clear();
            for (NodeRef n : nbr_buf) {
              if (is_candidate(info, n)) domain_buf.push_back(n);
            }
            first = false;
          } else {
            nbr_set.clear();
            nbr_set.insert(nbr_buf.begin(), nbr_buf.end());
            domain_buf.erase(std::remove_if(domain_buf.begin(), domain_buf.end(),
                                            [&](NodeRef n) { return nbr_set.count(n) == 0; }),
                             domain_buf.end());
          }
          if (domain_buf.empty()) break;
        }
        // Deterministic extension order.
        std::sort(domain_buf.begin(), domain_buf.end());
        domain = &domain_buf;
      }

      for (size_t i = 0; i < domain->size(); ++i) {
        NodeRef cand = (*domain)[i];
        if (Tripped(&gate, &stop)) break;
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
          NodeRef other_node = row_buf[col];
          size_t hops = e->clause->max_hops == SIZE_MAX ? options_.default_connected_hops
                                                        : e->clause->max_hops;
          if (reachable_from(other_node, hops).count(cand) == 0) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;

        table.Append(cand, row);
        if (table.OpenRows() > options_.max_intermediate_rows) {
          TripStop(&stop, StopReason::kRowLimit);
          break;
        }
        if (options_.memory_budget_bytes != 0 && (table.OpenRows() & 63) == 0 &&
            table.ByteSize() > options_.memory_budget_bytes) {
          TripStop(&stop, StopReason::kMemoryBudget);
          break;
        }
      }
    }
    table.EndColumn();
    if (options_.memory_budget_bytes != 0 &&
        table.ByteSize() > options_.memory_budget_bytes) {
      TripStop(&stop, StopReason::kMemoryBudget);
    }
    var_column[v] = var_column.size();
    stats.level_rows.push_back(table.NumRows());
    stats.rows_examined += table.NumRows();
    if (stop != StopReason::kCompleted) break;
    if (table.NumRows() == 0) break;
  }
  stats.peak_rows = table.peak_rows();
  stats.peak_bytes = table.peak_bytes();
  if (stop != StopReason::kCompleted) {
    stats.stop_reason = stop;
    return Status::OK();
  }

  // ------------------------------------------------------------------
  // 6. Collate results per target into items that carry ids only; labels
  //    and substructures are read on demand (QueryResult::LabelOf /
  //    SubstructureOf). One flat key set dedups every target: a NodeRef
  //    target keys on NodeRefHash, a splitmix64 bijection of an injective
  //    packing, so its dedup is exact; GRAPH keys on a row hash. A
  //    governance trip keeps the items collated so far (a partial page is
  //    still renderable).
  // ------------------------------------------------------------------
  // Rows of the final (closed) column; a join level that emptied out (or a
  // target variable the loop never reached) contributes no rows.
  size_t final_rows = table.num_columns() == 0 ? 1 : table.NumRows();
  auto target_col = [&]() -> size_t {
    auto it = var_column.find(target_var);
    return it == var_column.end() ? SIZE_MAX : it->second;
  };
  util::KeySet seen;

  switch (query.target) {
    case Target::kContents: {
      size_t col = target_col();
      if (col != SIZE_MAX) result.items.reserve(final_rows);
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (Tripped(&gate, &stop)) break;
        table.ReadRow(row, &row_buf);
        NodeRef n = row_buf[col];
        if (!seen.Insert(NodeRefHash{}(n))) continue;
        result.items.emplace_back().content_id = n.id;
      }
      break;
    }
    case Target::kReferents: {
      size_t col = target_col();
      if (col != SIZE_MAX) result.items.reserve(final_rows);
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (Tripped(&gate, &stop)) break;
        table.ReadRow(row, &row_buf);
        NodeRef n = row_buf[col];
        if (!seen.Insert(NodeRefHash{}(n))) continue;
        result.items.emplace_back().referent_id = n.id;
      }
      break;
    }
    case Target::kFragments: {
      size_t col = target_col();
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (Tripped(&gate, &stop)) break;
        table.ReadRow(row, &row_buf);
        NodeRef n = row_buf[col];
        if (!seen.Insert(NodeRefHash{}(n))) continue;
        const annotation::Annotation* ann = store.Get(n.id);
        if (ann == nullptr) continue;
        const xml::XmlDocument& content = store.ContentOf(*ann);
        if (content.root() == nullptr) continue;
        for (const xml::XPathMatch& m : fragment_xpath.Evaluate(content.root())) {
          ResultItem item;
          item.content_id = n.id;
          item.fragment = m.is_attribute ? m.value : m.node->ToString(/*pretty=*/false);
          result.items.push_back(std::move(item));
        }
      }
      break;
    }
    case Target::kCount: {
      size_t col = target_col();
      for (size_t row = 0; col != SIZE_MAX && row < final_rows; ++row) {
        if (Tripped(&gate, &stop)) break;
        table.ReadRow(row, &row_buf);
        seen.Insert(NodeRefHash{}(row_buf[col]));
      }
      result.items.emplace_back().count = seen.size();
      break;
    }
    case Target::kGraph: {
      // One row handle per distinct binding row ("each connected subgraph
      // forms a result page", §III). A row is sorted and deduplicated in
      // place, and its distinctness is keyed on a splitmix64-combined hash
      // of that terminal set: O(row) per row, no per-row allocation. A
      // 64-bit collision would drop one subgraph; at the
      // max_intermediate_rows default (2^20 rows) the odds are ~2^-25 per
      // query, accepted for the collation speed.
      //
      // The key set, the terminal pool and the row offsets are sized once
      // from the final row count, which bounds the distinct rows; a row
      // holds at most one terminal per column. First sightings append
      // their terminals to the pool, and after the loop the pool moves into
      // the result, immutable and shared by its copies, while `items` is
      // sized once and each handle views its slice: no item, vector or
      // copy per row. The subgraphs themselves are NOT built here:
      // MaterializePage runs the (batched) Steiner heuristic for just the
      // rows of the requested page. Connectivity is therefore also decided
      // lazily — a row whose terminals do not share a component keeps its
      // handle and materializes to an empty subgraph, which LabelOf reads
      // as "subgraph(disconnected)".
      std::vector<NodeRef> pool;  // terminals of each distinct row, in order
      std::vector<size_t> ends;   // end offset of each distinct row in pool
      pool.reserve(final_rows * table.num_columns());
      ends.reserve(final_rows);
      seen.Reserve(final_rows);
      for (size_t row = 0; row < final_rows; ++row) {
        if (Tripped(&gate, &stop)) break;
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
      result.items.resize(ends.size());
      size_t begin = 0;
      for (size_t i = 0; i < ends.size(); ++i) {
        result.items[i].terminals = {shared->data() + begin, ends[i] - begin};
        begin = ends[i];
      }
      result.terminal_pool = std::move(shared);
      break;
    }
  }

  stats.items_produced = result.items.size();

  // ------------------------------------------------------------------
  // 7. Paging: slice the requested page and materialize it (for GRAPH
  //    targets this is where — and the only place where — connection
  //    subgraphs get built).
  // ------------------------------------------------------------------
  size_t page_size = query.limit;
  if (page_size == SIZE_MAX) {
    page_size = (query.target == Target::kGraph) ? 1 : result.items.size();
  }
  if (page_size == 0) page_size = 1;
  result.page_size = page_size;
  result.total_pages = (result.items.size() + page_size - 1) / page_size;
  if (stop != StopReason::kCompleted) {
    // Collation tripped: keep the partial items but skip materialization —
    // the budget is already gone.
    stats.stop_reason = stop;
    return Status::OK();
  }
  Status ms = MaterializePage(&result, query.page);
  if (!ms.ok()) {
    StopReason r = ReasonFromStatus(ms);
    if (r == StopReason::kCompleted) return ms;  // hard error, not governance
    stats.stop_reason = r;
    return Status::OK();
  }
  stats.stop_reason = StopReason::kCompleted;
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
