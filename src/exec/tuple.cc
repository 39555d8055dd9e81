#include "exec/tuple.h"

#include <cassert>

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
