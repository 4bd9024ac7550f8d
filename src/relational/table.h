// Append-only heap table with secondary indexes and index-aware selection.
#ifndef GRAPHITTI_RELATIONAL_TABLE_H_
#define GRAPHITTI_RELATIONAL_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "relational/predicate.h"
#include "relational/schema.h"
#include "relational/value.h"
#include "util/result.h"

namespace graphitti {
namespace relational {

using RowId = uint64_t;

enum class IndexKind { kHash, kOrdered };

/// A single-table storage unit: append-only row heap + optional secondary
/// indexes. A RowId is the row's insertion ordinal: rows are never updated,
/// deleted or moved, so a RowId names the same row for the table's
/// lifetime, and every id below size() is a row.
class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Row count; also the RowId the next Insert assigns.
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Validates against the schema and appends; returns the new RowId.
  util::Result<RowId> Insert(Row row);

  /// Borrowed pointer to the row, or nullptr when `id` >= size().
  const Row* Get(RowId id) const { return id < rows_.size() ? &rows_[id] : nullptr; }

  /// Cell access by column name; Null when row or column missing.
  Value GetCell(RowId id, std::string_view column) const;

  /// Calls fn(RowId, const Row&) for every row, in RowId order.
  template <typename F>
  void Scan(F&& fn) const {
    for (RowId id = 0; id < rows_.size(); ++id) fn(id, rows_[id]);
  }

  /// Creates a secondary index on `column`. AlreadyExists if present.
  util::Status CreateIndex(std::string_view column, IndexKind kind);
  bool HasIndex(std::string_view column) const;

  /// (column name, kind) of every secondary index (for admin/persistence).
  std::vector<std::pair<std::string, IndexKind>> IndexDescriptors() const;

  /// RowIds satisfying `pred`, using an index for the most selective
  /// indexable conjunct when available, else a full scan. Results are in
  /// RowId order.
  util::Result<std::vector<RowId>> Select(const Predicate& pred) const;

  /// Like Select but never consults indexes (baseline for benchmarks).
  util::Result<std::vector<RowId>> SelectScan(const Predicate& pred) const;

  /// Estimated fraction of rows satisfying `pred` (for the query optimizer).
  /// Uses exact index bucket sizes for indexed equality conjuncts and
  /// heuristic defaults otherwise. Always in [0, 1].
  double EstimateSelectivity(const Predicate& pred) const;

  /// Deep copy (rows, secondary indexes) for copy-on-write version
  /// publication (util/epoch.h).
  std::unique_ptr<Table> Clone() const;

  std::string ToString() const;

 private:
  struct Index {
    IndexKind kind;
    int column = -1;
    // Exactly one of these is populated, per kind.
    std::unordered_map<Value, std::vector<RowId>, ValueHash> hash;
    std::multimap<Value, RowId> ordered;
  };

  void IndexInsert(RowId id, const Row& row);

  /// Finds an index usable for `cmp` (a kCompare predicate); nullptr if none.
  const Index* FindUsableIndex(const Predicate& cmp) const;
  std::vector<RowId> ProbeIndex(const Index& index, const Predicate& cmp) const;

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<std::unique_ptr<Index>> indexes_;
};

}  // namespace relational
}  // namespace graphitti

#endif  // GRAPHITTI_RELATIONAL_TABLE_H_
