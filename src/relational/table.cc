#include "relational/table.h"

#include <algorithm>

namespace graphitti {
namespace relational {

util::Result<RowId> Table::Insert(Row row) {
  GRAPHITTI_RETURN_NOT_OK(schema_.ValidateRow(row));
  RowId id = rows_.size();
  rows_.push_back(std::move(row));
  IndexInsert(id, rows_.back());
  return id;
}

Value Table::GetCell(RowId id, std::string_view column) const {
  const Row* row = Get(id);
  if (row == nullptr) return Value::Null();
  int idx = schema_.FindColumn(column);
  if (idx < 0) return Value::Null();
  return (*row)[static_cast<size_t>(idx)];
}

util::Status Table::CreateIndex(std::string_view column, IndexKind kind) {
  int idx = schema_.FindColumn(column);
  if (idx < 0) {
    return util::Status::NotFound("no column '" + std::string(column) + "' in '" + name_ + "'");
  }
  for (const auto& index : indexes_) {
    if (index->column == idx) {
      return util::Status::AlreadyExists("index on '" + std::string(column) + "' already exists");
    }
  }
  auto index = std::make_unique<Index>();
  index->kind = kind;
  index->column = idx;
  // Backfill from existing rows.
  for (RowId id = 0; id < rows_.size(); ++id) {
    const Value& key = rows_[id][static_cast<size_t>(idx)];
    if (key.is_null()) continue;
    if (kind == IndexKind::kHash) {
      index->hash[key].push_back(id);
    } else {
      index->ordered.emplace(key, id);
    }
  }
  indexes_.push_back(std::move(index));
  return util::Status::OK();
}

bool Table::HasIndex(std::string_view column) const {
  int idx = schema_.FindColumn(column);
  for (const auto& index : indexes_) {
    if (index->column == idx) return true;
  }
  return false;
}

std::vector<std::pair<std::string, IndexKind>> Table::IndexDescriptors() const {
  std::vector<std::pair<std::string, IndexKind>> out;
  for (const auto& index : indexes_) {
    out.emplace_back(schema_.column(static_cast<size_t>(index->column)).name, index->kind);
  }
  return out;
}

void Table::IndexInsert(RowId id, const Row& row) {
  for (auto& index : indexes_) {
    const Value& key = row[static_cast<size_t>(index->column)];
    if (key.is_null()) continue;
    if (index->kind == IndexKind::kHash) {
      index->hash[key].push_back(id);
    } else {
      index->ordered.emplace(key, id);
    }
  }
}

const Table::Index* Table::FindUsableIndex(const Predicate& cmp) const {
  if (cmp.kind() != Predicate::Kind::kCompare) return nullptr;
  int idx = schema_.FindColumn(cmp.column());
  if (idx < 0) return nullptr;
  for (const auto& index : indexes_) {
    if (index->column != idx) continue;
    switch (cmp.op()) {
      case CompareOp::kEq:
        return index.get();
      case CompareOp::kLt:
      case CompareOp::kLe:
      case CompareOp::kGt:
      case CompareOp::kGe:
        if (index->kind == IndexKind::kOrdered) return index.get();
        break;
      default:
        break;
    }
  }
  return nullptr;
}

std::vector<RowId> Table::ProbeIndex(const Index& index, const Predicate& cmp) const {
  std::vector<RowId> out;
  const Value& lit = cmp.literal();
  if (index.kind == IndexKind::kHash) {
    auto it = index.hash.find(lit);
    if (it != index.hash.end()) out = it->second;
  } else {
    switch (cmp.op()) {
      case CompareOp::kEq: {
        auto range = index.ordered.equal_range(lit);
        for (auto it = range.first; it != range.second; ++it) out.push_back(it->second);
        break;
      }
      case CompareOp::kLt:
        for (auto it = index.ordered.begin();
             it != index.ordered.end() && it->first.Compare(lit) < 0; ++it)
          out.push_back(it->second);
        break;
      case CompareOp::kLe:
        for (auto it = index.ordered.begin();
             it != index.ordered.end() && it->first.Compare(lit) <= 0; ++it)
          out.push_back(it->second);
        break;
      case CompareOp::kGt:
        for (auto it = index.ordered.upper_bound(lit); it != index.ordered.end(); ++it)
          out.push_back(it->second);
        break;
      case CompareOp::kGe:
        for (auto it = index.ordered.lower_bound(lit); it != index.ordered.end(); ++it)
          out.push_back(it->second);
        break;
      default:
        break;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

util::Result<std::vector<RowId>> Table::Select(const Predicate& pred) const {
  GRAPHITTI_RETURN_NOT_OK(pred.Bind(schema_));

  // Pick the most selective indexable conjunct, filter the rest row-by-row.
  std::vector<const Predicate*> conjuncts;
  pred.CollectConjuncts(&conjuncts);

  const Predicate* best = nullptr;
  const Index* best_index = nullptr;
  double best_sel = 1.1;
  for (const Predicate* c : conjuncts) {
    const Index* index = FindUsableIndex(*c);
    if (index == nullptr) continue;
    double sel = EstimateSelectivity(*c);
    if (sel < best_sel) {
      best_sel = sel;
      best = c;
      best_index = index;
    }
  }

  std::vector<RowId> out;
  if (best != nullptr) {
    for (RowId id : ProbeIndex(*best_index, *best)) {
      if (pred.Eval(schema_, rows_[id])) out.push_back(id);
    }
    return out;
  }
  return SelectScan(pred);
}

util::Result<std::vector<RowId>> Table::SelectScan(const Predicate& pred) const {
  GRAPHITTI_RETURN_NOT_OK(pred.Bind(schema_));
  std::vector<RowId> out;
  for (RowId id = 0; id < rows_.size(); ++id) {
    if (pred.Eval(schema_, rows_[id])) out.push_back(id);
  }
  return out;
}

double Table::EstimateSelectivity(const Predicate& pred) const {
  if (rows_.empty()) return 0.0;
  double n = static_cast<double>(rows_.size());
  switch (pred.kind()) {
    case Predicate::Kind::kTrue:
      return 1.0;
    case Predicate::Kind::kCompare: {
      // Exact estimate from a hash/ordered index when available.
      int idx = schema_.FindColumn(pred.column());
      if (idx >= 0 && pred.op() == CompareOp::kEq) {
        for (const auto& index : indexes_) {
          if (index->column != idx) continue;
          size_t matches = 0;
          if (index->kind == IndexKind::kHash) {
            auto it = index->hash.find(pred.literal());
            matches = it == index->hash.end() ? 0 : it->second.size();
          } else {
            auto range = index->ordered.equal_range(pred.literal());
            matches = static_cast<size_t>(std::distance(range.first, range.second));
          }
          return static_cast<double>(matches) / n;
        }
      }
      switch (pred.op()) {
        case CompareOp::kEq:
          return std::min(1.0, 1.0 / std::max(1.0, n / 10.0));
        case CompareOp::kNe:
          return 0.9;
        case CompareOp::kContains:
          return 0.2;
        case CompareOp::kPrefix:
          return 0.1;
        default:
          return 0.33;  // range
      }
    }
    case Predicate::Kind::kAnd:
      return EstimateSelectivity(*pred.lhs()) * EstimateSelectivity(*pred.rhs());
    case Predicate::Kind::kOr: {
      double a = EstimateSelectivity(*pred.lhs());
      double b = EstimateSelectivity(*pred.rhs());
      return std::min(1.0, a + b - a * b);
    }
    case Predicate::Kind::kNot:
      return 1.0 - EstimateSelectivity(*pred.lhs());
  }
  return 0.5;
}

std::unique_ptr<Table> Table::Clone() const {
  auto copy = std::make_unique<Table>(name_, schema_);
  copy->rows_ = rows_;
  copy->indexes_.reserve(indexes_.size());
  for (const auto& index : indexes_) {
    copy->indexes_.push_back(std::make_unique<Index>(*index));
  }
  return copy;
}

std::string Table::ToString() const {
  return name_ + " " + schema_.ToString() + " [" + std::to_string(rows_.size()) + " rows]";
}

}  // namespace relational
}  // namespace graphitti
