// SUB_X: marked substructures of heterogeneous data objects.
//
// The paper's referents are "marked portions of data objects": subintervals
// of sequences (1D), image/model regions (2D/3D), node sets of interaction
// graphs, row blocks of relational records, and clades of phylogenetic
// trees. Every referent is one of these, tagged with the domain whose shared
// index stores it.
#ifndef GRAPHITTI_SUBSTRUCTURE_SUBSTRUCTURE_H_
#define GRAPHITTI_SUBSTRUCTURE_SUBSTRUCTURE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spatial/interval.h"
#include "spatial/rect.h"
#include "util/result.h"

namespace graphitti {
namespace substructure {

enum class SubType {
  kInterval,   // 1D: sequences, MSA columns (domain = chromosome/sequence id)
  kRegion,     // 2D/3D: image/model regions (domain = coordinate system)
  kNodeSet,    // interaction-graph node subsets (domain = graph id)
  kBlockSet,   // relational record blocks (domain = table name; elements = RowIds)
  kTreeClade,  // phylogenetic tree clades (domain = tree id; elements = leaf ids)
};

std::string_view SubTypeToString(SubType type);

/// Per-type algebraic properties gating the §II operators: `next` needs a
/// strict domain ordering; `intersect` needs convexity.
struct TypeTraits {
  bool ordered = false;
  bool convex = false;
};

TypeTraits TraitsOf(SubType type);

/// A marked fragment of one data object. Exactly one payload field is
/// meaningful, per `type`.
class Substructure {
 public:
  Substructure() = default;

  static Substructure MakeInterval(std::string domain, spatial::Interval interval);
  static Substructure MakeRegion(std::string coordinate_system, spatial::Rect rect);
  /// `nodes` need not be sorted; stored sorted + deduplicated.
  static Substructure MakeNodeSet(std::string graph_id, std::vector<uint64_t> nodes);
  static Substructure MakeBlockSet(std::string table, std::vector<uint64_t> row_ids);
  static Substructure MakeTreeClade(std::string tree_id, std::vector<uint64_t> leaf_ids);

  SubType type() const { return type_; }
  const std::string& domain() const { return domain_; }
  const spatial::Interval& interval() const { return interval_; }
  const spatial::Rect& rect() const { return rect_; }
  const std::vector<uint64_t>& elements() const { return elements_; }

  TypeTraits traits() const { return TraitsOf(type_); }

  /// True when the payload is structurally valid (non-empty sets, valid
  /// interval/rect, non-empty domain).
  bool valid() const;

  bool operator==(const Substructure& other) const;

  /// Display string (the a-graph label of a referent). It abbreviates long
  /// element sets and rounds region bounds, so it is not a key: two unequal
  /// substructures may print alike.
  std::string ToString() const;

 private:
  SubType type_ = SubType::kInterval;
  std::string domain_;
  spatial::Interval interval_;
  spatial::Rect rect_;
  std::vector<uint64_t> elements_;
};

/// Hash over the type, the domain and the full payload, consistent with
/// operator==: it reads exactly the fields operator== compares, and hashes
/// 0.0 and -0.0 alike.
struct SubstructureHash {
  size_t operator()(const Substructure& sub) const;
};

}  // namespace substructure
}  // namespace graphitti

#endif  // GRAPHITTI_SUBSTRUCTURE_SUBSTRUCTURE_H_
