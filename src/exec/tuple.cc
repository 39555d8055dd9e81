#include "exec/tuple.h"

#include <cassert>

#include "common/exec_stats.h"

namespace xqtp::exec {

const TupleBatch::BoundColumn* TupleBatch::Find(Symbol field) const {
  for (const BoundColumn& c : columns_) {
    if (c.column->field == field) return &c;
  }
  return nullptr;
}

const xdm::Sequence* TupleBatch::Get(size_t i, Symbol field) const {
  const BoundColumn* c = Find(field);
  return c != nullptr ? &Value(*c, i) : nullptr;
}

void TupleBatch::AddOwnedColumn(TupleColumn column) {
  assert(column.values.size() == physical_rows_);
  columns_.push_back(
      BoundColumn{MakeColumn(std::move(column)), /*broadcast=*/false});
}

void TupleBatch::AddSharedColumn(TupleColumnPtr column) {
  assert(column != nullptr && column->values.size() == physical_rows_);
  columns_.push_back(BoundColumn{std::move(column), /*broadcast=*/false});
}

void TupleBatch::AddBroadcastColumn(TupleColumnPtr column) {
  assert(column != nullptr && column->values.size() == 1);
  columns_.push_back(BoundColumn{std::move(column), /*broadcast=*/true});
}

TupleBatch TupleBatch::SelectRows(const std::vector<uint32_t>& keep) const {
  TupleBatch out(physical_rows_);
  out.columns_ = columns_;
  auto sel = std::make_shared<std::vector<uint32_t>>();
  sel->reserve(keep.size());
  for (uint32_t logical : keep) sel->push_back(physical(logical));
  out.sel_ = std::move(sel);
  return out;
}

void TupleBatch::Flatten() {
  const bool identity = sel_ == nullptr;
  bool any_broadcast = false;
  for (const BoundColumn& c : columns_) any_broadcast |= c.broadcast;
  if (identity && !any_broadcast) return;

  const size_t n = rows();
  int64_t copies = 0;
  for (BoundColumn& c : columns_) {
    TupleColumn gathered;
    gathered.field = c.column->field;
    gathered.values.reserve(n);
    for (size_t i = 0; i < n; ++i) gathered.values.push_back(Value(c, i));
    c.column = MakeColumn(std::move(gathered));
    c.broadcast = false;
    ++copies;
  }
  CountCowColumnCopies(copies);
  physical_rows_ = n;
  sel_.reset();
}

void TupleBatch::Append(TupleBatch&& other) {
  if (other.rows() == 0) return;
  if (rows() == 0 && columns_.empty()) {
    *this = std::move(other);
    return;
  }
  Flatten();
  other.Flatten();
  assert(columns_.size() == other.columns_.size());
  const size_t added = other.physical_rows_;
  for (size_t c = 0; c < columns_.size(); ++c) {
    assert(columns_[c].column->field == other.columns_[c].column->field);
    TupleColumn merged;
    merged.field = columns_[c].column->field;
    merged.values.reserve(physical_rows_ + added);
    MoveColumnValues(columns_[c], &merged);
    MoveColumnValues(other.columns_[c], &merged);
    columns_[c].column = MakeColumn(std::move(merged));
  }
  physical_rows_ += added;
  other = TupleBatch();
}

void TupleBatch::MoveColumnValues(BoundColumn& from, TupleColumn* into) {
  if (from.column.use_count() == 1) {
    // Sole owner: steal the values. Legal because MakeColumn allocates
    // the object non-const; only the pointer's view is const.
    auto* mut = const_cast<TupleColumn*>(from.column.get());
    for (xdm::Sequence& v : mut->values) into->values.push_back(std::move(v));
  } else {
    for (const xdm::Sequence& v : from.column->values) {
      into->values.push_back(v);
    }
    CountCowColumnCopies(1);
  }
  from.column.reset();
}

int64_t TupleBatch::ApproxBytes() const {
  const size_t n = rows();
  int64_t bytes = 0;
  for (const BoundColumn& c : columns_) {
    if (c.broadcast) {
      bytes += static_cast<int64_t>(c.column->values[0].size() *
                                    sizeof(xdm::Item));
      continue;
    }
    bytes += static_cast<int64_t>(n * sizeof(xdm::Sequence));
    for (size_t i = 0; i < n; ++i) {
      bytes += static_cast<int64_t>(Value(c, i).size() * sizeof(xdm::Item));
    }
  }
  if (sel_) bytes += static_cast<int64_t>(sel_->size() * sizeof(uint32_t));
  return bytes;
}

TupleBatch RowView::ToBatch() const {
  if (batch_ == nullptr) return TupleBatch();
  return batch_->SelectRows({static_cast<uint32_t>(row_)});
}

}  // namespace xqtp::exec
