#include "query/result.h"

#include "annotation/annotation_store.h"

namespace graphitti {
namespace query {

std::string QueryResult::LabelOf(const ResultItem& item) const {
  switch (target) {
    case Target::kContents:
    case Target::kFragments:
      if (store == nullptr) return "";
      return store->NodeLabel(agraph::NodeRef::Content(item.content_id));
    case Target::kReferents:
      if (store == nullptr) return "";
      return store->NodeLabel(agraph::NodeRef::Referent(item.referent_id));
    case Target::kCount:
      return "count(?" + target_var + ") = " + std::to_string(item.count);
    case Target::kGraph:
      if (!item.subgraph_ready) return "";
      // A connect that succeeds holds at least its first terminal, so an
      // empty materialized subgraph is exactly a disconnected row.
      if (item.subgraph.nodes.empty()) return "subgraph(disconnected)";
      return "subgraph(" + std::to_string(item.subgraph.nodes.size()) + " nodes)";
  }
  return "";
}

const substructure::Substructure* QueryResult::SubstructureOf(const ResultItem& item) const {
  if (target != Target::kReferents || store == nullptr) return nullptr;
  const annotation::Referent* ref = store->GetReferent(item.referent_id);
  return ref == nullptr ? nullptr : &ref->substructure;
}

}  // namespace query
}  // namespace graphitti
