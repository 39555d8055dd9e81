#include "storage/node_table.h"

#include <algorithm>

#include "common/fault_injection.h"
#include "exec/exec_stats.h"
#include "exec/governor.h"
#include "xdm/sequence_ops.h"

namespace xqtp::storage {

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using pattern::TreePattern;
using xml::Node;

}  // namespace

NodeTable::NodeTable(const xml::Document& doc) {
  // Rows in pre order over ALL nodes (the pre rank is dense because
  // DocumentBuilder numbers every node, attributes included).
  int64_t n = 0;
  std::vector<const Node*> by_pre;
  // The arena isn't exposed; reconstruct document order from the tree.
  std::vector<const Node*> stack{doc.root()};
  while (!stack.empty()) {
    const Node* cur = stack.back();
    stack.pop_back();
    by_pre.push_back(cur);
    for (const Node* a : cur->attributes) by_pre.push_back(a);
    std::vector<const Node*> kids;
    for (const Node* c = cur->first_child; c != nullptr;
         c = c->next_sibling) {
      kids.push_back(c);
    }
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  std::sort(by_pre.begin(), by_pre.end(),
            [](const Node* a, const Node* b) { return a->pre < b->pre; });
  n = static_cast<int64_t>(by_pre.size());
  post_.resize(static_cast<size_t>(n));
  level_.resize(static_cast<size_t>(n));
  kind_.resize(static_cast<size_t>(n));
  tag_.resize(static_cast<size_t>(n));
  parent_.resize(static_cast<size_t>(n));
  node_.resize(static_cast<size_t>(n));
  for (const Node* node : by_pre) {
    auto r = static_cast<size_t>(node->pre);
    post_[r] = node->post;
    level_[r] = static_cast<int16_t>(node->depth);
    kind_[r] = node->kind;
    tag_[r] = node->name;
    parent_[r] = node->parent == nullptr ? -1 : node->parent->pre;
    node_[r] = node;
    RowId row = node->pre;
    switch (node->kind) {
      case xml::NodeKind::kElement:
        all_elements_.push_back(row);
        tag_rows_[node->name].push_back(row);
        all_nodes_.push_back(row);
        break;
      case xml::NodeKind::kText:
        text_rows_.push_back(row);
        all_nodes_.push_back(row);
        break;
      case xml::NodeKind::kAttribute:
        attr_rows_[node->name].push_back(row);
        break;
      case xml::NodeKind::kDocument:
        all_nodes_.push_back(row);
        break;
    }
  }
}

const std::vector<RowId>& NodeTable::ElementRows(Symbol tag) const {
  auto it = tag_rows_.find(tag);
  return it == tag_rows_.end() ? empty_ : it->second;
}

const std::vector<RowId>& NodeTable::AttributeRows(Symbol name) const {
  auto it = attr_rows_.find(name);
  return it == attr_rows_.end() ? empty_ : it->second;
}

const NodeTable& NodeTable::For(const xml::Document& doc) {
  const xml::DocumentExtension* ext = doc.GetOrBuildExtension(
      [](const xml::Document& d) -> xml::DocumentExtension* {
        return new NodeTable(d);
      });
  return *static_cast<const NodeTable*>(ext);
}

namespace {

/// Relational staircase join over the table.
class ShreddedEval {
 public:
  explicit ShreddedEval(const NodeTable& table) : table_(table) {}

  /// Rows matching `q.test` reached from a row.
  const std::vector<RowId>& RowsFor(const PatternNode& q) const {
    static const std::vector<RowId> kEmpty;
    if (q.axis == Axis::kAttribute) {
      if (q.test.kind == NodeTestKind::kName) {
        return table_.AttributeRows(q.test.name);
      }
      return kEmpty;
    }
    switch (q.test.kind) {
      case NodeTestKind::kName:
        return table_.ElementRows(q.test.name);
      case NodeTestKind::kAnyName:
        return table_.AllElementRows();
      case NodeTestKind::kText:
        return table_.TextRows();
      case NodeTestKind::kAnyNode:
        return table_.AllNodeRows();
    }
    return table_.AllNodeRows();
  }

  bool RowMatches(RowId r, const PatternNode& q) const {
    bool principal_attr = q.axis == Axis::kAttribute;
    switch (q.test.kind) {
      case NodeTestKind::kAnyNode:
        return table_.kind(r) != xml::NodeKind::kAttribute || principal_attr;
      case NodeTestKind::kText:
        return table_.kind(r) == xml::NodeKind::kText;
      case NodeTestKind::kAnyName:
        return principal_attr
                   ? table_.kind(r) == xml::NodeKind::kAttribute
                   : table_.kind(r) == xml::NodeKind::kElement;
      case NodeTestKind::kName:
        return (principal_attr
                    ? table_.kind(r) == xml::NodeKind::kAttribute
                    : table_.kind(r) == xml::NodeKind::kElement) &&
               table_.tag(r) == q.test.name;
    }
    return false;
  }

  /// One axis step over a sorted duplicate-free context row set. A
  /// tripped governor truncates the scans; EvalPatternShredded's final
  /// poll surfaces the latched verdict.
  std::vector<RowId> Step(std::vector<RowId> ctx, const PatternNode& q) {
    std::vector<RowId> out;
    if (ctx.empty() || !gov_.Tick()) return out;
    const std::vector<RowId>& rows = RowsFor(q);
    switch (q.axis) {
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        // Staircase pruning: covered context rows contribute nothing new
        // (disabled under a positional constraint).
        std::vector<RowId> pruned;
        for (RowId c : ctx) {
          if (q.position == 0 && !pruned.empty() &&
              table_.IsAncestor(pruned.back(), c)) {
            continue;
          }
          pruned.push_back(c);
        }
        size_t pos = 0;
        for (RowId c : pruned) {
          int count = 0;
          if (q.axis == Axis::kDescendantOrSelf && RowMatches(c, q)) {
            if (q.position == 0 || ++count == q.position) out.push_back(c);
          }
          exec::CountIndexSkip();
          auto it = std::upper_bound(
              rows.begin() +
                  static_cast<ptrdiff_t>(q.position == 0 ? pos : 0),
              rows.end(), c);
          size_t scan = static_cast<size_t>(it - rows.begin());
          while (scan < rows.size() && table_.post(rows[scan]) <
                                           table_.post(c)) {
            if (!gov_.Tick()) return out;
            exec::CountIndexEntries(1);
            if (q.position == 0) {
              out.push_back(rows[scan]);
            } else if (++count == q.position) {
              out.push_back(rows[scan]);
              break;
            }
            ++scan;
          }
          if (q.position == 0) pos = scan;
        }
        if (q.position != 0) {
          // Unpruned nested contexts may emit out of order.
          std::sort(out.begin(), out.end());
          out.erase(std::unique(out.begin(), out.end()), out.end());
        }
        break;
      }
      case Axis::kChild:
      case Axis::kAttribute: {
        for (RowId c : ctx) {
          int count = 0;
          exec::CountIndexSkip();
          auto it = std::upper_bound(rows.begin(), rows.end(), c);
          for (size_t scan = static_cast<size_t>(it - rows.begin());
               scan < rows.size() && table_.post(rows[scan]) < table_.post(c);
               ++scan) {
            if (!gov_.Tick()) return out;
            exec::CountIndexEntries(1);
            if (table_.parent(rows[scan]) != c) continue;
            if (q.position == 0) {
              out.push_back(rows[scan]);
            } else if (++count == q.position) {
              out.push_back(rows[scan]);
              break;
            }
          }
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        break;
      }
      case Axis::kSelf:
        for (RowId c : ctx) {
          if (RowMatches(c, q)) out.push_back(c);
        }
        break;
      case Axis::kParent: {
        for (RowId c : ctx) {
          RowId p = table_.parent(c);
          if (p >= 0 && RowMatches(p, q)) out.push_back(p);
        }
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        break;
      }
      default:
        break;  // non-pattern axes are guarded by the caller
    }
    return out;
  }

  bool Exists(RowId r, const PatternNode& q) {
    std::vector<RowId> cur = Step({r}, q);
    return !Matches(std::move(cur), q).empty();
  }

  std::vector<RowId> Matches(std::vector<RowId> candidates,
                             const PatternNode& q) {
    if (!q.predicates.empty()) {
      std::vector<RowId> kept;
      kept.reserve(candidates.size());
      for (RowId r : candidates) {
        if (!gov_.Tick()) break;
        bool ok = true;
        for (const PatternNodePtr& pred : q.predicates) {
          if (!Exists(r, *pred)) {
            ok = false;
            break;
          }
        }
        if (ok) kept.push_back(r);
      }
      candidates = std::move(kept);
    }
    if (q.next == nullptr) return candidates;
    std::vector<RowId> next = Step(std::move(candidates), *q.next);
    return Matches(std::move(next), *q.next);
  }

 private:
  const NodeTable& table_;
  exec::GovernorTicker gov_;
};

}  // namespace

Result<std::vector<exec::BindingRow>> EvalPatternShredded(
    const TreePattern& tp, const xdm::Sequence& context) {
  XQTP_FAULT_POINT("storage.pattern.shredded");
  if (tp.root == nullptr) return std::vector<exec::BindingRow>{};
  if (!exec::HandlesPatternShape(exec::PatternAlgo::kShredded, tp)) {
    return exec::EvalPatternNL(tp, context);
  }
  const xml::Document* doc = nullptr;
  std::vector<RowId> ctx;
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) {
      return Status::TypeError(
          "tree pattern applied to a non-node context item");
    }
    if (doc == nullptr) doc = it.node()->doc;
    if (it.node()->doc != doc) return exec::EvalPatternNL(tp, context);
    ctx.push_back(it.node()->pre);
  }
  if (doc == nullptr) return std::vector<exec::BindingRow>{};
  std::sort(ctx.begin(), ctx.end());
  ctx.erase(std::unique(ctx.begin(), ctx.end()), ctx.end());

  const NodeTable& table = NodeTable::For(*doc);
  ShreddedEval eval(table);
  std::vector<RowId> first = eval.Step(std::move(ctx), *tp.root);
  std::vector<RowId> result = eval.Matches(std::move(first), *tp.root);
  XQTP_RETURN_NOT_OK(exec::GovernorPoll());

  Symbol out = tp.OutputFields()[0];
  std::vector<exec::BindingRow> rows;
  rows.reserve(result.size());
  for (RowId r : result) {
    exec::BindingRow row;
    row.fields.emplace_back(out, table.node(r));
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace xqtp::storage
