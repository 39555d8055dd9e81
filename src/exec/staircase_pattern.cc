// Staircase-join evaluation of tree patterns.
//
// Each main-path step is evaluated for the whole context set at once:
// the context "staircase" is pruned (contexts covered by an earlier
// context's subtree contribute nothing new on the descendant axes) and the
// per-tag index is scanned once per remaining context region, skipping
// between regions with binary search (ScanRegions, pattern_eval.h).
// Attribute and self steps use the constant-cost structure pointers of
// the data model, as in Galax.
// Predicate branches are existential semijoins evaluated per candidate
// node — this is exactly why the paper observes Staircase join degrading
// on heavily-branched patterns (QE3/QE6) while remaining excellent on
// linear paths.
#include <algorithm>

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
using xml::Document;
using xml::Node;

class StaircaseEval {
 public:
  /// Evaluates one axis step over the whole context set, producing a
  /// document-ordered duplicate-free result set. A positional constraint
  /// (the future-work extension) keeps only the position-th raw match per
  /// context node, which disables staircase pruning for that step (a
  /// covered context still has its own k-th match).
  std::vector<const Node*> Step(std::span<const Node* const> ctx, Axis axis,
                                const NodeTest& test, int position = 0) {
    std::vector<const Node*> out;
    if (ctx.empty() || !gov_.Tick()) return out;
    if (position > 0) {
      const Document& doc = *ctx.front()->doc;
      // The contexts are sorted, so each search starts where the previous
      // context's ended; not past its scan, since the next context may lie
      // inside this one.
      size_t pos = 0;
      for (const Node* c : ctx) {
        int count = 0;
        switch (axis) {
          case Axis::kChild:
          case Axis::kDescendant:
          case Axis::kDescendantOrSelf: {
            if (axis == Axis::kDescendantOrSelf &&
                xdm::MatchesTest(c, axis, test) && ++count == position) {
              out.push_back(c);
              break;
            }
            const std::vector<const Node*>& stream =
                StepStream(doc, axis, test);
            CountIndexSkip();
            auto it = std::upper_bound(
                stream.begin() + static_cast<ptrdiff_t>(pos), stream.end(),
                c->pre,
                [](int32_t pre, const Node* n) { return pre < n->pre; });
            pos = static_cast<size_t>(it - stream.begin());
            for (; it != stream.end() && (*it)->post < c->post; ++it) {
              CountIndexEntries(1);
              if (axis == Axis::kChild && (*it)->parent != c) continue;
              if (++count == position) {
                out.push_back(*it);
                break;
              }
            }
            break;
          }
          default: {
            xdm::Sequence items;
            xdm::EvalAxisStep(c, axis, test, &items);
            if (static_cast<int>(items.size()) >= position) {
              out.push_back(items[static_cast<size_t>(position - 1)].node());
            }
            break;
          }
        }
      }
      SortDedup(&out);
      return out;
    }
    if (axis == Axis::kChild || axis == Axis::kDescendant ||
        axis == Axis::kDescendantOrSelf) {
      // Child is also evaluated against the index, scanning the tag
      // stream inside each context's subtree region and filtering on the
      // parent pointer — the pre/post-plane treatment of Staircase join.
      // This is why the paper's Section 5.3 observes SCJoin paying an
      // index scan per step even for child axes, while Table 1 shows
      // child and descendant variants costing about the same.
      return ScanRegions(StepStream(*ctx.front()->doc, axis, test), ctx, axis,
                         test, &gov_);
    }
    if (axis == Axis::kAttribute) {
      for (const Node* c : ctx) {
        for (const Node* a : c->Attributes()) {
          if (xdm::MatchesTest(a, axis, test)) out.push_back(a);
        }
      }
      SortDedup(&out);
      return out;
    }
    // The self axis, the one pattern axis left (EvalPattern admits no
    // other).
    for (const Node* c : ctx) {
      if (xdm::MatchesTest(c, axis, test)) out.push_back(c);
    }
    return out;
  }

  /// Existential predicate check: does the sub-pattern match from `node`?
  bool Exists(const Node* node, const PatternNode& p) {
    std::vector<const Node*> cur =
        Step(std::span(&node, 1), p.axis, p.test, p.position);
    return !Matches(std::move(cur), p).empty();
  }

  /// Filters `candidates` (already matching p's own step) through p's
  /// predicate branches, then follows the main path; returns the nodes of
  /// the *last* step of the sub-path that survive.
  std::vector<const Node*> Matches(std::vector<const Node*> candidates,
                                   const PatternNode& p) {
    if (!p.predicates.empty()) {
      std::vector<const Node*> kept;
      kept.reserve(candidates.size());
      for (const Node* n : candidates) {
        if (!gov_.Tick()) break;
        bool ok = true;
        for (const PatternNodePtr& pred : p.predicates) {
          if (!Exists(n, *pred)) {
            ok = false;
            break;
          }
        }
        if (ok) kept.push_back(n);
      }
      candidates = std::move(kept);
    }
    if (p.next == nullptr) return candidates;
    std::vector<const Node*> next =
        Step(candidates, p.next->axis, p.next->test, p.next->position);
    return Matches(std::move(next), *p.next);
  }

  /// The governor verdict that interrupted the scans, or OK. Checked by
  /// EvalPatternStaircase before the (possibly truncated) result is used.
  [[nodiscard]]
  const Status& status() const { return gov_.status(); }

 private:
  GovernorTicker gov_;
};

}  // namespace

Result<std::vector<const Node*>> EvalPatternStaircase(
    const TreePattern& tp, std::span<const Node* const> context) {
  XQTP_FAULT_POINT("exec.pattern.staircase");
  if (tp.root == nullptr) return std::vector<const Node*>{};
  StaircaseEval eval;
  std::vector<const Node*> first =
      eval.Step(context, tp.root->axis, tp.root->test, tp.root->position);
  std::vector<const Node*> result = eval.Matches(std::move(first), *tp.root);
  XQTP_RETURN_NOT_OK(eval.status());
  // Already document-ordered and duplicate-free by construction.
  return result;
}

}  // namespace xqtp::exec
