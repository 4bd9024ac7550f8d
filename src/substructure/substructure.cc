#include "substructure/substructure.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <string>

#include "util/dense_set.h"

namespace graphitti {
namespace substructure {

std::string_view SubTypeToString(SubType type) {
  switch (type) {
    case SubType::kInterval:
      return "interval";
    case SubType::kRegion:
      return "region";
    case SubType::kNodeSet:
      return "node-set";
    case SubType::kBlockSet:
      return "block-set";
    case SubType::kTreeClade:
      return "tree-clade";
  }
  return "?";
}

TypeTraits TraitsOf(SubType type) {
  switch (type) {
    case SubType::kInterval:
      return {.ordered = true, .convex = true};
    case SubType::kRegion:
      return {.ordered = false, .convex = true};
    case SubType::kNodeSet:
      return {.ordered = false, .convex = false};
    case SubType::kBlockSet:
      // RowIds give relational blocks a usable total order (insertion order),
      // so `next` is meaningful; blocks are not convex.
      return {.ordered = true, .convex = false};
    case SubType::kTreeClade:
      return {.ordered = false, .convex = false};
  }
  return {};
}

namespace {
std::vector<uint64_t> SortedUnique(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}
}  // namespace

Substructure Substructure::MakeInterval(std::string domain, spatial::Interval interval) {
  Substructure s;
  s.type_ = SubType::kInterval;
  s.domain_ = std::move(domain);
  s.interval_ = interval;
  return s;
}

Substructure Substructure::MakeRegion(std::string coordinate_system, spatial::Rect rect) {
  Substructure s;
  s.type_ = SubType::kRegion;
  s.domain_ = std::move(coordinate_system);
  s.rect_ = rect;
  return s;
}

Substructure Substructure::MakeNodeSet(std::string graph_id, std::vector<uint64_t> nodes) {
  Substructure s;
  s.type_ = SubType::kNodeSet;
  s.domain_ = std::move(graph_id);
  s.elements_ = SortedUnique(std::move(nodes));
  return s;
}

Substructure Substructure::MakeBlockSet(std::string table, std::vector<uint64_t> row_ids) {
  Substructure s;
  s.type_ = SubType::kBlockSet;
  s.domain_ = std::move(table);
  s.elements_ = SortedUnique(std::move(row_ids));
  return s;
}

Substructure Substructure::MakeTreeClade(std::string tree_id, std::vector<uint64_t> leaf_ids) {
  Substructure s;
  s.type_ = SubType::kTreeClade;
  s.domain_ = std::move(tree_id);
  s.elements_ = SortedUnique(std::move(leaf_ids));
  return s;
}

bool Substructure::valid() const {
  if (domain_.empty()) return false;
  switch (type_) {
    case SubType::kInterval:
      return interval_.valid();
    case SubType::kRegion:
      return rect_.valid();
    case SubType::kNodeSet:
    case SubType::kBlockSet:
    case SubType::kTreeClade:
      return !elements_.empty();
  }
  return false;
}

bool Substructure::operator==(const Substructure& other) const {
  if (type_ != other.type_ || domain_ != other.domain_) return false;
  switch (type_) {
    case SubType::kInterval:
      return interval_ == other.interval_;
    case SubType::kRegion:
      return rect_ == other.rect_;
    default:
      return elements_ == other.elements_;
  }
}

namespace {
uint64_t MixIn(uint64_t h, uint64_t x) { return util::Mix64(h ^ x); }

uint64_t BoundBits(double d) {
  if (d == 0) d = 0;  // -0.0 == 0.0, so both hash as +0.0
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}
}  // namespace

size_t SubstructureHash::operator()(const Substructure& sub) const {
  uint64_t h = MixIn(static_cast<uint64_t>(sub.type()), std::hash<std::string>{}(sub.domain()));
  switch (sub.type()) {
    case SubType::kInterval:
      h = MixIn(h, static_cast<uint64_t>(sub.interval().lo));
      h = MixIn(h, static_cast<uint64_t>(sub.interval().hi));
      break;
    case SubType::kRegion: {
      const spatial::Rect& r = sub.rect();
      h = MixIn(h, static_cast<uint64_t>(r.dims));
      for (int d = 0; d < r.dims && d < spatial::Rect::kMaxDims; ++d) {
        h = MixIn(h, BoundBits(r.lo[d]));
        h = MixIn(h, BoundBits(r.hi[d]));
      }
      break;
    }
    default:
      h = MixIn(h, sub.elements().size());
      for (uint64_t e : sub.elements()) h = MixIn(h, e);
  }
  return static_cast<size_t>(h);
}

namespace {

// Appends an integer in decimal, as std::to_string would, without the
// temporary string.
template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];  // the longest 64-bit value, INT64_MIN, takes 20
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

}  // namespace

std::string Substructure::ToString() const {
  std::string_view type_name = SubTypeToString(type_);
  std::string out;
  // One allocation for the common interval case: this string is built once
  // per new referent (its a-graph label), on ingest and on restore alike.
  out.reserve(type_name.size() + 1 + domain_.size() + 48);
  out += type_name;
  out += '@';
  out += domain_;
  switch (type_) {
    case SubType::kInterval:
      out += '[';
      AppendInt(&out, interval_.lo);
      out += ',';
      AppendInt(&out, interval_.hi);
      out += ']';
      break;
    case SubType::kRegion:
      rect_.AppendTo(&out);
      break;
    default: {
      out += '{';
      for (size_t i = 0; i < elements_.size() && i < 8; ++i) {
        if (i) out += ',';
        AppendInt(&out, elements_[i]);
      }
      if (elements_.size() > 8) out += ",...";
      out += '}';
    }
  }
  return out;
}

}  // namespace substructure
}  // namespace graphitti
