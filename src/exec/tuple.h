// Tuples flowing through the tuple algebra, as TupleBatches: ~1024 rows
// in structure-of-arrays layout — one TupleColumn (one xdm::Item per row)
// per field, columns shared by reference across operators via
// shared_ptr<const TupleColumn>, plus a selection vector so Select
// filters WITHOUT copying a single item and a per-column broadcast flag
// so a pattern that expands one input tuple into thousands of binding
// rows replicates the input fields by reference, not by value.
// The evaluator (exec/evaluator.cc) streams these between pipeline-able
// operators; a RowView names one row of a batch.
//
// One item per field. Every tuple field holds exactly one item, by
// construction: MapFromItem binds its field to IN, the current item (the
// only dependent algebra::Compile builds, and analysis::VerifyPlan's
// [one-item-field] rule), and a TupleTreePattern binds one node per
// output tuple. So a column is a flat vector of items with no row
// offsets, and reading a field allocates nothing.
//
// Thread-safety: a TupleBatch is immutable through the shared columns
// (shared_ptr<const ...>), so any number of threads may read one batch —
// or sibling batches sharing columns — concurrently. Adding a column
// requires exclusive ownership of the TupleBatch object itself, like any
// value type.
#ifndef XQTP_EXEC_TUPLE_H_
#define XQTP_EXEC_TUPLE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "xdm/item.h"

namespace xqtp::exec {

/// One column of a TupleBatch: a field symbol plus one item per physical
/// row. Immutable once wrapped in a TupleColumnPtr; batches share columns
/// by reference.
struct TupleColumn {
  Symbol field = kInvalidSymbol;
  std::vector<xdm::Item> values;
};

using TupleColumnPtr = std::shared_ptr<const TupleColumn>;

/// The one way to wrap a column for sharing.
inline TupleColumnPtr MakeColumn(TupleColumn col) {
  return std::make_shared<TupleColumn>(std::move(col));
}

/// A batch of tuples in columnar (structure-of-arrays) layout.
///
/// Logical vs physical rows: columns store `physical_rows()` items;
/// an optional selection vector maps the batch's `rows()` LOGICAL rows to
/// physical indices (absent = identity). A broadcast column holds exactly
/// one physical value served to every logical row — the zero-copy
/// replication used when a tree pattern fans one input tuple out into
/// many binding rows.
class TupleBatch {
 public:
  struct BoundColumn {
    TupleColumnPtr column;
    /// One physical value (values[0]) serves every logical row; the
    /// selection vector does not apply to this column.
    bool broadcast = false;
  };

  TupleBatch() = default;
  /// A batch of `physical_rows` rows with no columns yet (a tuple with
  /// zero fields is legal — kInputTuple over an empty ambient tuple).
  explicit TupleBatch(size_t physical_rows) : physical_rows_(physical_rows) {}

  /// Logical row count (selection applied).
  size_t rows() const { return sel_ ? sel_->size() : physical_rows_; }
  size_t physical_rows() const { return physical_rows_; }
  bool empty() const { return rows() == 0; }
  size_t column_count() const { return columns_.size(); }
  const std::vector<BoundColumn>& columns() const { return columns_; }

  /// Physical index of logical row `i` (broadcast columns ignore it).
  uint32_t physical(size_t i) const {
    return sel_ ? (*sel_)[i] : static_cast<uint32_t>(i);
  }

  /// The column bound to `field`, or nullptr. Resolve once per batch,
  /// not once per row.
  const BoundColumn* Find(Symbol field) const;

  /// The item `column` holds for logical row `i`.
  const xdm::Item& Value(const BoundColumn& column, size_t i) const {
    return column.broadcast ? column.column->values[0]
                            : column.column->values[physical(i)];
  }

  /// The field's item at logical row `i`, or nullptr if the field is
  /// absent (an absent field reads as the empty sequence).
  const xdm::Item* Get(size_t i, Symbol field) const;

  /// Appends a column owned by this batch (values.size() must equal
  /// physical_rows(), asserted in debug builds).
  void AddOwnedColumn(TupleColumn column);
  /// Appends a single-value column broadcast to every logical row.
  void AddBroadcastColumn(TupleColumnPtr column);

  /// A filtered view of this batch: `keep` lists LOGICAL row indices (in
  /// order, possibly with repeats). Every column is shared — this is the
  /// zero-copy Select. The result's selection composes with this batch's.
  [[nodiscard]]
  TupleBatch SelectRows(const std::vector<uint32_t>& keep) const;

  /// Approximate heap footprint for the governor's byte accountant:
  /// sizeof(Item) per LOGICAL row and column, broadcast columns counted
  /// once, plus the selection vector. A
  /// selection view is charged for the rows it selects, not for the
  /// columns it shares: a one-row view of a 1,000-row batch costs one
  /// row. Columns shared by several live batches are counted by each.
  int64_t ApproxBytes() const;

 private:
  size_t physical_rows_ = 0;
  std::vector<BoundColumn> columns_;
  /// Logical -> physical row map; null = identity over physical rows.
  std::shared_ptr<const std::vector<uint32_t>> sel_;
};

/// Read-only view of one logical row of a TupleBatch, or of no row at
/// all (default-constructed). This is what dependent item plans see as
/// IN — batch kernels pass (batch, row) without materializing anything.
class RowView {
 public:
  RowView() = default;
  RowView(const TupleBatch* batch, size_t row) : batch_(batch), row_(row) {}

  /// False when there is no tuple context at all.
  bool valid() const { return batch_ != nullptr; }

  /// The viewed batch (nullptr when invalid) and its logical row: the
  /// key under which a batch kernel's loop-lifted results are read.
  const TupleBatch* batch() const { return batch_; }
  size_t row() const { return row_; }

  /// The field's item, or nullptr if absent.
  const xdm::Item* Get(Symbol field) const {
    return batch_ != nullptr ? batch_->Get(row_, field) : nullptr;
  }

  /// A one-row TupleBatch sharing the viewed batch's columns (zero copy —
  /// a selection of one). An invalid view yields the empty batch.
  TupleBatch ToBatch() const;

 private:
  const TupleBatch* batch_ = nullptr;
  size_t row_ = 0;
};

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_TUPLE_H_
