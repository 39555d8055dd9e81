// Nested-loop pattern evaluation: depth-first navigation over
// first-child / next-sibling cursors. The recursive enumeration is the
// library's most open-ended loop (fan-out is data-dependent and
// unbounded), so it carries a strided governor poll: a deadline or an
// external cancel interrupts the traversal mid-enumeration, surfacing
// from EvalPatternNL as the governor's Status.
#include "common/fault_injection.h"
#include "exec/exec_stats.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "xdm/sequence_ops.h"
#include "xml/document.h"

namespace xqtp::exec {

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using pattern::TreePattern;
using xml::Node;

/// True iff the sub-pattern rooted at `p` has a match starting from `ctx`
/// (existential check used for predicate branches). Early-exits on the
/// first match, so highly selective predicates stay cheap. A tripped
/// governor also returns false — the latched ticker status makes the
/// caller discard the bogus partial answer.
bool ExistsMatch(const Node* ctx, const PatternNode& p,
                 GovernorTicker* gov) {
  xdm::Sequence candidates;
  xdm::EvalAxisStep(ctx, p.axis, p.test, &candidates);
  int pos = 0;
  for (const xdm::Item& it : candidates) {
    if (!gov->Tick()) return false;
    const Node* n = it.node();
    // Positional constraint: only the position-th raw match counts.
    ++pos;
    if (p.position > 0) {
      if (pos < p.position) continue;
      if (pos > p.position) break;
    }
    bool preds_ok = true;
    for (const PatternNodePtr& pred : p.predicates) {
      if (!ExistsMatch(n, *pred, gov)) {
        preds_ok = false;
        break;
      }
    }
    if (!preds_ok) continue;
    if (p.next == nullptr || ExistsMatch(n, *p.next, gov)) return true;
  }
  return false;
}

/// Depth-first enumeration of main-path bindings; collects the nodes the
/// extraction point binds.
void Enumerate(const Node* ctx, const PatternNode& p,
               std::vector<const Node*>* out, GovernorTicker* gov) {
  xdm::Sequence candidates;
  xdm::EvalAxisStep(ctx, p.axis, p.test, &candidates);
  int pos = 0;
  for (const xdm::Item& it : candidates) {
    if (!gov->Tick()) return;
    const Node* n = it.node();
    ++pos;
    if (p.position > 0) {
      if (pos < p.position) continue;
      if (pos > p.position) break;
    }
    bool preds_ok = true;
    for (const PatternNodePtr& pred : p.predicates) {
      if (!ExistsMatch(n, *pred, gov)) {
        preds_ok = false;
        break;
      }
    }
    if (!preds_ok) continue;
    if (p.next != nullptr) {
      Enumerate(n, *p.next, out, gov);
    } else {
      out->push_back(n);
    }
  }
}

}  // namespace

Result<std::vector<const Node*>> EvalPatternNL(
    const TreePattern& tp, std::span<const Node* const> context) {
  XQTP_FAULT_POINT("exec.pattern.nl");
  std::vector<const Node*> out;
  if (tp.root == nullptr) return out;
  GovernorTicker gov;
  for (const Node* c : context) {
    Enumerate(c, *tp.root, &out, &gov);
    if (!gov.status().ok()) return gov.status();
  }
  SortDedup(&out);
  return out;
}

}  // namespace xqtp::exec
