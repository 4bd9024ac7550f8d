// Columnar binding table: the executor's intermediate join state.
//
// The §II pipeline collates typed subqueries by extending one variable at a
// time. A row-of-vectors representation copies every prior binding each time
// a row is extended — O(depth) per emitted row and an allocation per row.
// This table stores one dense column per bound variable instead
// (struct-of-arrays): extending variable k appends (value, parent) pairs to
// column k only, where `parent` indexes the row of column k-1 the extension
// grew from. Prior bindings are shared structurally through the parent
// links (a trie over binding prefixes), so
//   - extension is O(1) per emitted row with zero copying of prior columns,
//   - peak memory is sum(level sizes) * 12 bytes instead of
//     sum(level sizes * level depth) * 16 bytes, and
//   - a full row is recovered on demand by one O(depth) parent-chain walk.
#ifndef GRAPHITTI_QUERY_BINDING_TABLE_H_
#define GRAPHITTI_QUERY_BINDING_TABLE_H_

#include <cstdint>
#include <vector>

#include "agraph/agraph.h"

namespace graphitti {
namespace query {

class BindingTable {
 public:
  /// Bound columns so far (including the one opened by BeginColumn).
  size_t num_columns() const { return cols_.size(); }

  /// Rows available for extension: the rows of the last column, or the
  /// single empty seed row before any column exists.
  size_t NumRows() const { return cols_.empty() ? 1 : cols_.back().values.size(); }

  /// Opens a new column and returns the number of parent rows to extend.
  size_t BeginColumn() {
    size_t parents = NumRows();
    cols_.emplace_back();
    return parents;
  }

  /// Appends one row to the open column: variable binding `value` extending
  /// parent row `parent` of the previous column. `parent` must fit uint32_t
  /// (callers cap levels well below that via max_intermediate_rows).
  void Append(agraph::NodeRef value, size_t parent) {
    cols_.back().values.push_back(value);
    cols_.back().parents.push_back(static_cast<uint32_t>(parent));
  }

  /// Rows appended to the open column so far.
  size_t OpenRows() const { return cols_.back().values.size(); }

  /// Closes the open column, folding its size into peak_rows() and the
  /// table's byte footprint into peak_bytes().
  void EndColumn() {
    if (cols_.back().values.size() > peak_rows_) peak_rows_ = cols_.back().values.size();
    size_t bytes = ByteSize();
    if (bytes > peak_bytes_) peak_bytes_ = bytes;
  }

  /// Reads the bindings of parent row `row` — a row of the column preceding
  /// the open one — into *out (out[c] = binding of column c). With only the
  /// open column present this is the empty seed row. It never reads the
  /// open column, so it may be interleaved with Append.
  void ReadParentRow(size_t row, std::vector<agraph::NodeRef>* out) const {
    ReadRowAt(cols_.size() - 1, row, out);
  }

  /// Reads the bindings of row `row` of the last (closed) column into *out.
  void ReadRow(size_t row, std::vector<agraph::NodeRef>* out) const {
    ReadRowAt(cols_.size(), row, out);
  }

  /// Largest single-column row count seen (the table's peak width).
  size_t peak_rows() const { return peak_rows_; }

  /// Running maximum of ByteSize() across closed columns — the true peak,
  /// which keeps holding even if columns are later dropped or shrunk.
  size_t peak_bytes() const { return peak_bytes_; }

  /// Total bytes held by all columns (values + parent links).
  size_t ByteSize() const {
    size_t bytes = 0;
    for (const Column& c : cols_) {
      bytes += c.values.size() * sizeof(agraph::NodeRef) +
               c.parents.size() * sizeof(uint32_t);
    }
    return bytes;
  }

 private:
  struct Column {
    std::vector<agraph::NodeRef> values;
    std::vector<uint32_t> parents;  // row index into the previous column
  };

  // Fills out[0..levels) by walking parent links from row `row` of column
  // `levels - 1` back to column 0.
  void ReadRowAt(size_t levels, size_t row, std::vector<agraph::NodeRef>* out) const {
    out->resize(levels);
    size_t r = row;
    for (size_t c = levels; c-- > 0;) {
      (*out)[c] = cols_[c].values[r];
      r = cols_[c].parents[r];
    }
  }

  std::vector<Column> cols_;
  size_t peak_rows_ = 0;
  size_t peak_bytes_ = 0;
};

}  // namespace query
}  // namespace graphitti

#endif  // GRAPHITTI_QUERY_BINDING_TABLE_H_
