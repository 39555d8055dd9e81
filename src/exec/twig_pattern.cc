// Holistic twig-join evaluation of tree patterns.
//
// The algorithm processes every pattern edge with ordered merges over
// document-ordered streams — no per-node index probes — which is the
// holistic property of TwigJoin [4]: per evaluation, each stream is
// scanned once per pattern edge, with binary-searched skipping into the
// context subtrees (so a TupleTreePattern embedded in a map, evaluated
// once per tuple, only touches the tuple's region of the index).
//
// Three phases per evaluation:
//   1. top-down candidate generation: cand(q) = stream(q) restricted to
//      nodes reachable from the parent step's candidates via q's axis;
//   2. bottom-up refinement: drop candidates that do not satisfy the
//      predicate branches / main-path continuation (structural merge
//      semijoins);
//   3. a final top-down reachability pass over the refined sets, which
//      yields the extraction set directly in document order.
#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/fault_injection.h"
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

using NodeVec = std::vector<const Node*>;

/// Keep a in A iff some d in D lies below a along `axis` (both sorted).
NodeVec SemijoinDown(const NodeVec& a_vec, const NodeVec& d_vec, Axis axis) {
  NodeVec out;
  switch (axis) {
    case Axis::kChild:
    case Axis::kAttribute: {
      std::unordered_set<const Node*> parents;
      parents.reserve(d_vec.size());
      for (const Node* d : d_vec) {
        if (d->parent != nullptr) parents.insert(d->parent);
      }
      for (const Node* a : a_vec) {
        if (parents.count(a) > 0) out.push_back(a);
      }
      break;
    }
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      std::unordered_set<const Node*> selves;
      if (axis == Axis::kDescendantOrSelf) {
        selves.insert(d_vec.begin(), d_vec.end());
      }
      for (const Node* a : a_vec) {
        if (axis == Axis::kDescendantOrSelf && selves.count(a) > 0) {
          out.push_back(a);
          continue;
        }
        // Descendants of `a` are contiguous in preorder: the first stream
        // node after a.pre is inside a's subtree iff any descendant is.
        auto it = std::upper_bound(
            d_vec.begin(), d_vec.end(), a->pre,
            [](int32_t pre, const Node* n) { return pre < n->pre; });
        if (it != d_vec.end() && (*it)->post < a->post) out.push_back(a);
      }
      break;
    }
    case Axis::kSelf: {
      std::unordered_set<const Node*> set(d_vec.begin(), d_vec.end());
      for (const Node* a : a_vec) {
        if (set.count(a) > 0) out.push_back(a);
      }
      break;
    }
    case Axis::kParent: {
      std::unordered_set<const Node*> set(d_vec.begin(), d_vec.end());
      for (const Node* a : a_vec) {
        if (a->parent != nullptr && set.count(a->parent) > 0) {
          out.push_back(a);
        }
      }
      break;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      // Non-pattern axes never reach the twig join (NL fallback).
      break;
  }
  return out;
}

/// Nodes matching `test` reachable from some node of `ctx` along `axis`,
/// computed with the staircase region scan over the per-tag stream
/// (document order preserved). Self-membership tests use the node test
/// directly, so the cost is bounded by the windows, never the whole stream.
NodeVec ReachableVia(const Document& doc, Axis axis, const NodeTest& test,
                     const NodeVec& ctx, GovernorTicker* gov) {
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      return ScanRegions(StepStream(doc, axis, test), ctx, axis, test, gov);
    case Axis::kAttribute:
      if (test.kind != NodeTestKind::kName) {
        // Attribute wildcards have no stream: navigate the contexts'
        // attributes, which follow their owner in document order.
        NodeVec out;
        for (const Node* c : ctx) {
          for (const Node* a : c->Attributes()) {
            if (xdm::MatchesTest(a, axis, test)) out.push_back(a);
          }
        }
        return out;
      }
      [[fallthrough]];
    case Axis::kChild: {
      // One pruned scan of the contexts' regions, then a parent filter:
      // nested contexts do not rescan the stream.
      NodeVec window = ScanRegions(StepStream(doc, axis, test), ctx,
                                   Axis::kDescendant, test, gov);
      std::unordered_set<const Node*> parents(ctx.begin(), ctx.end());
      NodeVec out;
      out.reserve(window.size());
      for (const Node* d : window) {
        if (d->parent != nullptr && parents.count(d->parent) > 0) {
          out.push_back(d);
        }
      }
      return out;
    }
    case Axis::kSelf: {
      NodeVec out;
      for (const Node* c : ctx) {
        if (xdm::MatchesTest(c, axis, test)) out.push_back(c);
      }
      return out;
    }
    case Axis::kParent: {
      NodeVec out;
      for (const Node* c : ctx) {
        if (c->parent != nullptr && xdm::MatchesTest(c->parent, axis, test)) {
          out.push_back(c->parent);
        }
      }
      SortDedup(&out);
      return out;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      break;  // non-pattern axes never reach the twig join (NL fallback)
  }
  return {};
}

/// Phase-3 variant of ReachableVia operating on an already-refined
/// candidate vector (small, hashable) instead of a whole stream.
NodeVec SemijoinUpWithin(const NodeVec& candidates, const NodeVec& ctx,
                         const PatternNode& p, GovernorTicker* gov) {
  switch (p.axis) {
    case Axis::kDescendant:
      return ScanRegions(candidates, ctx, p.axis, p.test, gov);
    case Axis::kDescendantOrSelf: {
      // A context is a self-hit only while it is still a candidate, which
      // matching the test alone does not imply after refinement.
      NodeVec window =
          ScanRegions(candidates, ctx, Axis::kDescendant, p.test, gov);
      std::unordered_set<const Node*> cand(candidates.begin(),
                                           candidates.end());
      NodeVec selves;
      for (const Node* c : ctx) {
        if (cand.count(c) > 0) selves.push_back(c);
      }
      if (selves.empty()) return window;
      NodeVec merged;
      merged.reserve(window.size() + selves.size());
      std::merge(window.begin(), window.end(), selves.begin(), selves.end(),
                 std::back_inserter(merged), xml::DocOrderLess);
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      return merged;
    }
    case Axis::kChild:
    case Axis::kAttribute: {
      std::unordered_set<const Node*> parents(ctx.begin(), ctx.end());
      NodeVec out;
      for (const Node* d : candidates) {
        if (d->parent != nullptr && parents.count(d->parent) > 0) {
          out.push_back(d);
        }
      }
      return out;
    }
    case Axis::kSelf: {
      std::unordered_set<const Node*> cand(candidates.begin(),
                                           candidates.end());
      NodeVec out;
      for (const Node* c : ctx) {
        if (cand.count(c) > 0) out.push_back(c);
      }
      return out;
    }
    case Axis::kParent: {
      std::unordered_set<const Node*> cand(candidates.begin(),
                                           candidates.end());
      NodeVec out;
      for (const Node* c : ctx) {
        if (c->parent != nullptr && cand.count(c->parent) > 0) {
          out.push_back(c->parent);
        }
      }
      SortDedup(&out);
      return out;
    }
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      break;  // non-pattern axes never reach the twig join (NL fallback)
  }
  return {};
}

class TwigEval {
 public:
  TwigEval(const Document& doc, GovernorTicker* gov) : doc_(doc), gov_(gov) {}

  /// Phase 1+2 for the sub-twig rooted at `p` with context candidates
  /// `ctx`: computes (and memoizes) the refined match set of every node
  /// in the sub-twig.
  const NodeVec& ComputeSets(const PatternNode& p, const NodeVec& ctx) {
    NodeVec m = ReachableVia(doc_, p.axis, p.test, ctx, gov_);
    for (const PatternNodePtr& pred : p.predicates) {
      if (m.empty()) break;
      const NodeVec& pm = ComputeSets(*pred, m);
      m = SemijoinDown(m, pm, pred->axis);
    }
    if (p.next != nullptr && !m.empty()) {
      const NodeVec& nm = ComputeSets(*p.next, m);
      m = SemijoinDown(m, nm, p.next->axis);
    }
    return sets_[&p] = std::move(m);
  }

  const NodeVec& SetOf(const PatternNode& p) const { return sets_.at(&p); }

 private:
  const Document& doc_;
  GovernorTicker* gov_;
  std::unordered_map<const PatternNode*, NodeVec> sets_;
};

}  // namespace

Result<NodeVec> EvalPatternTwig(const TreePattern& tp,
                                const xdm::Sequence& context) {
  XQTP_FAULT_POINT("exec.pattern.twig");
  if (tp.root == nullptr) return NodeVec{};
  if (!HandlesPatternShape(PatternAlgo::kTwig, tp)) {
    // Positional steps need per-parent counting, which the set-at-a-time
    // merges cannot express — delegate to the nested-loop evaluator.
    return EvalPatternNL(tp, context);
  }
  NodeVec ctx;
  ctx.reserve(context.size());
  for (const xdm::Item& it : context) {
    if (!it.IsNode()) {
      return Status::TypeError(
          "tree pattern applied to a non-node context item");
    }
    ctx.push_back(it.node());
  }
  if (ctx.empty()) return NodeVec{};
  SortDedup(&ctx);
  // The stream-based merge works one document at a time.
  for (const Node* n : ctx) {
    if (n->doc != ctx.front()->doc) return EvalPatternNL(tp, context);
  }

  // The region scans are the twig join's hot loop; a tripped governor
  // truncates them and the final poll below surfaces the latched verdict,
  // discarding the partial sets.
  GovernorTicker gov;
  TwigEval eval(*ctx.front()->doc, &gov);
  eval.ComputeSets(*tp.root, ctx);

  // Phase 3: final top-down reachability over the refined main-path sets.
  std::vector<const PatternNode*> path;
  for (const PatternNode* p = tp.root.get(); p != nullptr;
       p = p->next.get()) {
    path.push_back(p);
  }
  NodeVec reach = eval.SetOf(*path[0]);
  for (size_t i = 1; i < path.size() && !reach.empty(); ++i) {
    reach = SemijoinUpWithin(eval.SetOf(*path[i]), reach, *path[i], &gov);
  }
  // Surface a mid-merge trip (sticky in the governor) before the possibly
  // truncated sets become a result.
  XQTP_RETURN_NOT_OK(GovernorPoll());
  return reach;
}

}  // namespace xqtp::exec
