// Shared tree-pattern machinery: the context contract (ContextNode, and
// EvalPattern's handling of what no optimized plan sends), the algorithm
// dispatch behind TupleTreePattern (EvalPattern / EvalPatternSequential),
// the pattern shapes each algorithm handles itself, the index stream a
// step scans and the staircase region scan over it, the document-order
// sort and dedup node sets are finalized with, and the governance
// boundary — a cooperative governor check guards every pattern
// evaluation, and the individual algorithms poll on a stride inside their
// inner loops (GovernorTicker), so a deadline or external cancel
// interrupts even one huge pattern operator mid-scan instead of waiting
// for it to finish.
#include "exec/pattern_eval.h"

#include <algorithm>
#include <cassert>

#include "common/fault_injection.h"
#include "exec/cost_model.h"
#include "exec/exec_stats.h"
#include "exec/governor.h"
#include "exec/parallel.h"
#include "xdm/sequence_ops.h"
#include "xml/document.h"

namespace xqtp::exec {

using pattern::TreePattern;

const char* PatternAlgoName(PatternAlgo algo) {
  switch (algo) {
    case PatternAlgo::kNLJoin:
      return "NLJoin";
    case PatternAlgo::kStaircase:
      return "SCJoin";
    case PatternAlgo::kTwig:
      return "TwigJoin";
    case PatternAlgo::kCostBased:
      return "CostBased";
  }
  return "?";
}

bool HandlesPatternShape(PatternAlgo algo, const TreePattern& tp) {
  switch (algo) {
    case PatternAlgo::kNLJoin:
    case PatternAlgo::kCostBased:
    case PatternAlgo::kStaircase:
      return true;
    case PatternAlgo::kTwig:
      return !tp.HasPositionalSteps();
  }
  return false;
}

const std::vector<const xml::Node*>& StepStream(const xml::Document& doc,
                                                Axis axis,
                                                const NodeTest& test) {
  if (axis == Axis::kAttribute) {
    static const std::vector<const xml::Node*> kEmpty;
    if (test.kind == NodeTestKind::kName) return doc.AttributesByName(test.name);
    return kEmpty;
  }
  switch (test.kind) {
    case NodeTestKind::kName:
      return doc.ElementsByTag(test.name);
    case NodeTestKind::kAnyName:
      return doc.AllElements();
    case NodeTestKind::kText:
      return doc.TextNodes();
    case NodeTestKind::kAnyNode:
      return doc.AllNodes();
  }
  return doc.AllNodes();
}

std::vector<const xml::Node*> ScanRegions(
    const std::vector<const xml::Node*>& stream,
    std::span<const xml::Node* const> ctx, Axis axis, const NodeTest& test,
    GovernorTicker* gov) {
  const bool child = axis == Axis::kChild;
  const bool self = axis == Axis::kDescendantOrSelf;
  std::vector<const xml::Node*> out;
  bool sorted = true;
  const xml::Node* cover = nullptr;  // the last context not inside another
  size_t pos = 0;
  for (const xml::Node* c : ctx) {
    if (cover == nullptr || !cover->IsAncestorOf(*c)) {
      cover = c;
    } else if (child) {
      sorted = false;  // c's children interleave with its cover's
    } else {
      // Pruned: c's region, and c itself when it matches, were scanned
      // with its cover's — unless c is an attribute, which node() matches
      // but no descendant-axis stream holds.
      if (self && c->IsAttribute() && xdm::MatchesTest(c, axis, test)) {
        out.push_back(c);
        sorted = false;
      }
      continue;
    }
    if (self && xdm::MatchesTest(c, axis, test)) out.push_back(c);
    // Skip to the first stream entry inside c's subtree.
    CountIndexSkip();
    auto it = std::upper_bound(
        stream.begin() + static_cast<ptrdiff_t>(pos), stream.end(), c->pre,
        [](int32_t pre, const xml::Node* n) { return pre < n->pre; });
    pos = static_cast<size_t>(it - stream.begin());
    // Descendants of c are contiguous in preorder.
    size_t end = pos;
    for (; end < stream.size() && stream[end]->post < c->post; ++end) {
      if (!gov->Tick()) return out;
      CountIndexEntries(1);
      if (!child || stream[end]->parent == c) out.push_back(stream[end]);
    }
    // A later child-axis context may nest inside c's region; a later
    // descendant-axis context starts past it.
    if (!child) pos = end;
  }
  if (!sorted) std::sort(out.begin(), out.end(), xml::DocOrderLess);
  return out;
}

namespace {

/// True iff `nodes` are in document order and distinct.
bool IsNodeSet(std::span<const xml::Node* const> nodes) {
  return std::adjacent_find(nodes.begin(), nodes.end(),
                            [](const xml::Node* a, const xml::Node* b) {
                              return !xml::DocOrderLess(a, b);
                            }) == nodes.end();
}

}  // namespace

void SortDedup(std::vector<const xml::Node*>* nodes) {
  // Most sets arrive in document order and distinct (one context's
  // bindings, a context field): one pass finds that out and skips the sort.
  if (IsNodeSet(*nodes)) return;
  std::sort(nodes->begin(), nodes->end(), xml::DocOrderLess);
  nodes->erase(std::unique(nodes->begin(), nodes->end()), nodes->end());
}

Result<const xml::Node*> ContextNode(const xdm::Item& context) {
  if (!context.IsNode()) {
    return Status::TypeError("tree pattern applied to a non-node context item");
  }
  return context.node();
}

Result<std::vector<const xml::Node*>> EvalPatternSequential(
    const TreePattern& tp, std::span<const xml::Node* const> context,
    PatternAlgo algo) {
  // Every pattern evaluation — morsel or whole — crosses a governance
  // boundary here; the algorithms' inner loops add strided polls on top.
  XQTP_RETURN_NOT_OK(GovernorPoll());
  XQTP_FAULT_POINT("exec.pattern.dispatch");
  switch (algo) {
    case PatternAlgo::kNLJoin:
      return EvalPatternNL(tp, context);
    case PatternAlgo::kStaircase:
      return EvalPatternStaircase(tp, context);
    case PatternAlgo::kTwig:
      return EvalPatternTwig(tp, context);
    case PatternAlgo::kCostBased:
      return EvalPatternSequential(tp, context, ChooseAlgorithm(tp, context));
  }
  return Status::Internal("unknown pattern algorithm");
}

Result<std::vector<const xml::Node*>> EvalPattern(
    const TreePattern& tp, std::span<const xml::Node* const> context,
    PatternAlgo algo, const ParallelContext* par) {
  assert(IsNodeSet(context) && "pattern context not a document-ordered set");
  // The optimizer builds patterns from the pattern axes only, and
  // VerifyPlan rejects any other step; no algorithm evaluates one.
  if (!tp.UsesOnlyPatternAxes()) {
    return Status::Internal("tree pattern step outside the pattern axes");
  }
  // The index scans work one document at a time; a context that spans two
  // runs the nested loop. Otherwise the cost-based choice is resolved
  // once, against the full context, so a morselized evaluation runs ONE
  // algorithm across all its morsels.
  const auto other_document = [&context](const xml::Node* n) {
    return n->doc != context.front()->doc;
  };
  if (std::any_of(context.begin(), context.end(), other_document)) {
    algo = PatternAlgo::kNLJoin;
  } else if (algo == PatternAlgo::kCostBased) {
    algo = ChooseAlgorithm(tp, context);
  }
  if (ExecStats* s = CurrentExecStats()) {
    ++s->pattern_evals;
    switch (HandlesPatternShape(algo, tp) ? algo : PatternAlgo::kNLJoin) {
      case PatternAlgo::kStaircase:
        ++s->sc_evals;
        break;
      case PatternAlgo::kTwig:
        ++s->tj_evals;
        break;
      case PatternAlgo::kNLJoin:
      case PatternAlgo::kCostBased:
        ++s->nl_evals;
        break;
    }
  }
  if (par != nullptr) {
    Result<std::vector<const xml::Node*>> nodes =
        std::vector<const xml::Node*>{};
    if (TryEvalPatternParallel(tp, context, algo, *par, &nodes)) return nodes;
  }
  return EvalPatternSequential(tp, context, algo);
}

}  // namespace xqtp::exec
