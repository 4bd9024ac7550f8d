// Line-oriented a-graph text dump (ToText, behind ExportAGraph):
//   N <kind> <id> <label...>
//   E <kind> <id> <kind> <id> <label...>
#include <string>

#include "agraph/agraph.h"

namespace graphitti {
namespace agraph {

namespace {

const char* KindCode(NodeKind kind) {
  switch (kind) {
    case NodeKind::kContent:
      return "C";
    case NodeKind::kReferent:
      return "R";
    case NodeKind::kOntologyTerm:
      return "T";
    case NodeKind::kDataObject:
      return "O";
  }
  return "?";
}

// Escapes newlines and backslashes in labels (labels are free text).
std::string EscapeLabel(std::string_view label) {
  std::string out;
  for (char c : label) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\\') {
      out += "\\\\";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string AGraph::ToText(const std::function<std::string(NodeRef)>& label_of) const {
  std::string out;
  out += "# a-graph v1\n";
  ForEachNode([&](NodeRef ref) {
    out += "N ";
    out += KindCode(ref.kind);
    out += ' ';
    out += std::to_string(ref.id);
    const std::string label = label_of(ref);
    if (!label.empty()) {
      out += ' ';
      out += EscapeLabel(label);
    }
    out += '\n';
  });
  ForEachEdge([&](const EdgeRecord& e) {
    out += "E ";
    out += KindCode(e.from.kind);
    out += ' ';
    out += std::to_string(e.from.id);
    out += ' ';
    out += KindCode(e.to.kind);
    out += ' ';
    out += std::to_string(e.to.id);
    if (!e.label.empty()) {
      out += ' ';
      out += EscapeLabel(e.label);
    }
    out += '\n';
  });
  return out;
}

}  // namespace agraph
}  // namespace graphitti
