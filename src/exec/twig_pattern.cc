// Holistic twig-join evaluation of tree patterns.
//
// Every pattern edge is joined by ordered merges over document-ordered
// node sets — no hash table and no per-node index probe — which is the
// holistic property of TwigJoin [4]. Three phases per evaluation:
//   1. top-down candidate generation: cand(q) = the nodes q's step reaches
//      from the parent step's candidates. A descendant step is one
//      staircase region scan of q's index stream (ScanRegions), with
//      binary-searched skipping into the context subtrees, so a
//      TupleTreePattern evaluated once per tuple only touches the tuple's
//      region of the index. A child or named attribute step scans the
//      descendant window the same way and merges it with its sources;
//   2. bottom-up refinement: keep the candidates that have a refined match
//      of every predicate branch and of the main-path continuation;
//   3. a final top-down pass merging each refined main-path set with the
//      next one, which yields the extraction set in document order.
// One merge, Semijoin, joins an edge in every phase. It reads each input
// once and keeps on a stack the chain of upper nodes that contain the
// current lower node (the Stack-Tree structural join).
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
using NodeSpan = std::span<const Node* const>;

/// The structural semijoin of two document-ordered, duplicate-free node
/// sets along a pattern axis (child, attribute, descendant,
/// descendant-or-self or self), in one merge: with `keep_upper`, the
/// `upper` nodes that reach some `lower` node along `axis`; otherwise the
/// `lower` nodes that some `upper` node reaches. Each node read ticks
/// `gov`; a tripped governor truncates the result.
NodeVec Semijoin(NodeSpan upper, NodeSpan lower, Axis axis, bool keep_upper,
                 GovernorTicker* gov) {
  const bool self = axis == Axis::kSelf || axis == Axis::kDescendantOrSelf;
  const bool down =
      axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
  std::vector<size_t> stack;  // upper indices: the chain containing `l`
  std::vector<char> kept(keep_upper ? upper.size() : 0);
  NodeVec out;
  size_t next = 0;
  for (const Node* l : lower) {
    for (; next < upper.size() && upper[next]->pre <= l->pre; ++next) {
      if (!gov->Tick()) return out;
      while (!stack.empty() &&
             !upper[stack.back()]->IsAncestorOf(*upper[next])) {
        stack.pop_back();
      }
      stack.push_back(next);
    }
    if (!gov->Tick()) return out;
    while (!stack.empty() && upper[stack.back()] != l &&
           !upper[stack.back()]->IsAncestorOf(*l)) {
      stack.pop_back();
    }
    if (stack.empty() && next == upper.size()) break;  // no upper node left
    // The entries that reach l lie below `top`; l itself only on a self
    // axis.
    size_t top = stack.size();
    if (top > 0 && upper[stack[top - 1]] == l && !self) --top;
    if (top == 0) continue;
    const Node* inner = upper[stack[top - 1]];
    if (!down && inner != (axis == Axis::kSelf ? l : l->parent)) continue;
    if (!keep_upper) {
      out.push_back(l);
    } else if (!down) {
      kept[stack[top - 1]] = 1;
    } else {
      // Every entry below a marked one was marked with it, so the marks
      // stop at the first: each merge stays linear.
      for (size_t i = top; i > 0 && !kept[stack[i - 1]]; --i) {
        kept[stack[i - 1]] = 1;
      }
    }
  }
  if (keep_upper) {
    for (size_t i = 0; i < upper.size(); ++i) {
      if (kept[i]) out.push_back(upper[i]);
    }
  }
  return out;
}

/// Phase 1: the nodes `q`'s step reaches from the contexts `ctx`, in
/// document order. Self steps and attribute wildcards, which have no
/// stream, read the contexts; every other step scans the contexts' pruned
/// regions of its stream, and a child or attribute step merges that
/// window with the contexts.
NodeVec ReachableVia(const Document& doc, const PatternNode& q, NodeSpan ctx,
                     GovernorTicker* gov) {
  if (q.axis == Axis::kSelf) {
    NodeVec out;
    for (const Node* c : ctx) {
      if (xdm::MatchesTest(c, q.axis, q.test)) out.push_back(c);
    }
    return out;
  }
  if (q.axis == Axis::kAttribute && q.test.kind != NodeTestKind::kName) {
    // A context's attributes follow it in document order.
    NodeVec out;
    for (const Node* c : ctx) {
      for (const Node* a : c->Attributes()) {
        if (xdm::MatchesTest(a, q.axis, q.test)) out.push_back(a);
      }
    }
    return out;
  }
  const NodeVec& stream = StepStream(doc, q.axis, q.test);
  if (q.axis != Axis::kChild && q.axis != Axis::kAttribute) {
    return ScanRegions(stream, ctx, q.axis, q.test, gov);
  }
  const NodeVec window =
      ScanRegions(stream, ctx, Axis::kDescendant, q.test, gov);
  return Semijoin(ctx, window, q.axis, /*keep_upper=*/false, gov);
}

/// One step of a chain and its candidate set.
struct StepSet {
  const PatternNode* step;
  NodeVec nodes;
};

/// Phases 1 and 2 for the chain of steps from `p` along `next`, from the
/// contexts `ctx`: each step's candidates that have a refined match of its
/// predicate branches and of the rest of the chain, first step first. A
/// step left without candidates ends the chain, and the refinement empties
/// every set above it.
std::vector<StepSet> Refine(const Document& doc, const PatternNode& p,
                            NodeSpan ctx, GovernorTicker* gov) {
  std::vector<StepSet> chain;
  NodeSpan from = ctx;
  for (const PatternNode* q = &p; q != nullptr && !from.empty();
       q = q->next.get()) {
    NodeVec m = ReachableVia(doc, *q, from, gov);
    for (const PatternNodePtr& pred : q->predicates) {
      if (m.empty()) break;
      m = Semijoin(m, Refine(doc, *pred, m, gov).front().nodes, pred->axis,
                   /*keep_upper=*/true, gov);
    }
    chain.push_back({q, std::move(m)});
    from = chain.back().nodes;
  }
  for (size_t i = chain.size(); i > 1; --i) {
    chain[i - 2].nodes = Semijoin(chain[i - 2].nodes, chain[i - 1].nodes,
                                  chain[i - 1].step->axis,
                                  /*keep_upper=*/true, gov);
  }
  return chain;
}

}  // namespace

Result<NodeVec> EvalPatternTwig(const TreePattern& tp, NodeSpan context) {
  XQTP_FAULT_POINT("exec.pattern.twig");
  if (tp.root == nullptr) return NodeVec{};
  if (!HandlesPatternShape(PatternAlgo::kTwig, tp)) {
    // Positional steps need per-parent counting, which the set-at-a-time
    // merges cannot express — delegate to the nested-loop evaluator.
    return EvalPatternNL(tp, context);
  }
  if (context.empty()) return NodeVec{};

  // The scans and merges are the twig join's hot loops; a tripped governor
  // truncates them and the final poll below surfaces the latched verdict,
  // discarding the partial sets.
  GovernorTicker gov;
  std::vector<StepSet> path =
      Refine(*context.front()->doc, *tp.root, context, &gov);
  // Phase 3: final top-down pass over the refined main-path sets.
  NodeVec reach = std::move(path.front().nodes);
  for (size_t i = 1; i < path.size() && !reach.empty(); ++i) {
    reach = Semijoin(reach, path[i].nodes, path[i].step->axis,
                     /*keep_upper=*/false, &gov);
  }
  // Surface a mid-merge trip (sticky in the governor) before the possibly
  // truncated sets become a result.
  XQTP_RETURN_NOT_OK(GovernorPoll());
  return reach;
}

}  // namespace xqtp::exec
