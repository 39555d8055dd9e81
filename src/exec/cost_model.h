// Cost-based tree-pattern algorithm selection — the paper's concluding
// future-work item: "Clearly, an accurate cost model is needed."
//
// The model predicts, for each algorithm, the work counters ExecStats
// records when that algorithm evaluates a pattern over a context, and
// prices them in nanoseconds:
//   - NLJoin:   nodes_visited — each step's cursor enumeration from every
//               context, and each predicate probe, which stops at the
//               first candidate that matches;
//   - SCJoin:   index_entries_scanned and index_skips — one region scan per
//               step and context node, and one full evaluation of every
//               predicate branch per candidate;
//   - TwigJoin: index_entries_scanned and index_skips — one region scan
//               per pattern edge over the parent step's whole candidate
//               set (a child step reads the descendant window) — and the
//               nodes its merges read (steps): a child or named attribute
//               step's sources and window, each edge's bottom-up
//               refinement, and the final top-down pass;
// plus one evaluation each, and the per-node overheads those counters do
// not record (PredictedWork::steps). The costs per unit (kNLCosts,
// kSCCosts and kTJCosts in cost_model.cc) are this codebase's measured
// work, not costs from the literature, whose holistic-vs-binary verdicts
// flip with implementation detail.
//
// Statistics. The cardinalities come from xml::DocumentStats, which a
// document builds in one walk over its nodes when it is finished:
//   - per element tag: its element count, the summed sizes of their
//     subtrees (attributes excluded), their child count, and how many of
//     them have children;
//   - per (parent tag, child) pair, the child an element tag, text or an
//     attribute name: how many such children there are, and how many
//     parents have at least one.
// A child step's matches are the pair's children. A descendant step's
// matches from a node, which are also the entries a region scan of the
// node reads, are the larger of the node's matching children and the
// test's share of its subtree. A predicate holds on a node with the
// probability that it has a candidate (the pair's parents) times the
// chance that one of its candidates satisfies the rest of the branch.
// A context set is weighted over its nodes' tags; sets that span more
// than a handful of tags are priced as average elements.
//
// No DataGuide. A prefix tree of root-to-node tag paths would give exact
// path cardinalities, but its size follows the document's path variety,
// not its tag alphabet: on member_twig's MemBeR document (823,881
// elements, 100 tags) it holds 485,727 paths against 10,001 child pairs;
// on XMark (factor 1.0) 123 paths against 72 child pairs and 312
// ancestor-descendant pairs. The child pairs alone keep every estimate
// of the XMark corpus and QE1-QE6 within 10x of the counters
// (cost_model_test's EstimatesTrackCounters).
//
// The estimate reads only the statistics snapshot and the contexts it is
// given: no index stream, no lock, no index build. One pass over the
// pattern prices all three algorithms.
//
// Refitting the unit costs. On bench_costmodel's and bench_table1's
// documents, the XMark corpus (factor 1.0) and QueryGen(1) texts on the
// witness corpus's largest document, time EvalPattern per pattern and
// algorithm (one thread) over the contexts each pattern receives, read
// the counters each evaluation records (ScopedExecStats) and the
// predicted steps, and fit each algorithm's costs by least squares on the
// log of predicted over measured time, weighting each document set
// equally, for eval + visit * nodes_visited + entry *
// index_entries_scanned + skip * index_skips + step * steps.
#ifndef XQTP_EXEC_COST_MODEL_H_
#define XQTP_EXEC_COST_MODEL_H_

#include "exec/pattern_eval.h"
#include "xml/document.h"

namespace xqtp::exec {

/// The work counters one evaluation is predicted to record (ExecStats'
/// nodes_visited, index_entries_scanned and index_skips), and a count of
/// the per-node overheads ExecStats does not record, `steps`: NL's cursor
/// enumerations (one per node a step starts from), SC's Step calls (one
/// per step of the main path, and one per step of every per-candidate
/// predicate evaluation), each allocating its result, and its positional
/// steps' per-node searches, and the nodes TJ's merges read (both inputs
/// of every merge).
struct PredictedWork {
  double nodes_visited = 0;
  double index_entries = 0;
  double index_skips = 0;
  double steps = 0;
};

/// The counters evaluating `tp` over `context` with `algo` is predicted
/// to record. When `algo` hands `tp` to the nested loop
/// (HandlesPatternShape), these are the nested loop's.
PredictedWork PredictWork(const pattern::TreePattern& tp,
                          const xdm::Sequence& context, PatternAlgo algo);

/// Estimated time, in nanoseconds, of evaluating `tp` over the given
/// contexts with `algo` (the nested loop's when `algo` hands `tp` to it).
/// 0 for an empty context.
double EstimateCost(const pattern::TreePattern& tp,
                    const xdm::Sequence& context, PatternAlgo algo);

/// The cheapest algorithm for this pattern and context per the model.
PatternAlgo ChooseAlgorithm(const pattern::TreePattern& tp,
                            const xdm::Sequence& context);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_COST_MODEL_H_
