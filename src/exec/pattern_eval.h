// The physical tree-pattern algorithms behind TupleTreePattern. All three
// produce the operator semantics of Section 4.1 for the paper's
// single-output patterns: the distinct nodes the extraction point binds
// over the context nodes, in document order (XPath's semantics). The
// caller binds them to the pattern's output field.
//
//  - kNLJoin:    nested-loop navigation over first-child / next-sibling
//                cursors; touches only the reachable part of the tree.
//  - kStaircase: Staircase-join [Grust & van Keulen]: per-step scans of the
//                per-tag index with context pruning and skipping.
//  - kTwig:      holistic twig join [Bruno, Koudas & Srivastava]: one
//                merge pass per pattern edge over document-ordered tag
//                streams (bottom-up match-set computation, then a top-down
//                filtering pass).
//
// The context contract. A context field holds one item, which becomes a
// node once, in ContextNode; a lifted batch's distinct context nodes
// form document-ordered, duplicate-free layers (EvalPatternLifted), the
// input structural joins read. Every layer below (EvalPattern, the
// algorithms, the morsel driver and the cost model) takes such a set as
// a span and checks nothing again. EvalPattern alone
// handles the shapes no optimized plan sends: a context spanning two
// documents runs the nested loop (the index scans work one document at a
// time), and a pattern with a step outside the pattern grammar
// (AxisAllowedInPattern) is Status::Internal.
//
// Both index algorithms, and the parallel driver's root-step expansion,
// read the tag streams through one staircase region scan (ScanRegions).
// TwigJoin hands patterns with positional steps to the nested loop
// (HandlesPatternShape).
#ifndef XQTP_EXEC_PATTERN_EVAL_H_
#define XQTP_EXEC_PATTERN_EVAL_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "pattern/tree_pattern.h"
#include "xdm/item.h"

namespace xqtp::exec {

/// The physical algorithm used to evaluate TupleTreePattern operators.
enum class PatternAlgo : uint8_t {
  kNLJoin,
  kStaircase,
  kTwig,
  kCostBased,  ///< per-evaluation choice by the cost model (cost_model.h)
};

const char* PatternAlgoName(PatternAlgo algo);

/// Whether `algo` evaluates patterns of `tp`'s shape itself. False means
/// it hands `tp` to EvalPatternNL: a positional step (TwigJoin). The
/// algorithms and the cost model share this rule, so the cost of a
/// handoff is priced as the nested loop that actually runs.
bool HandlesPatternShape(PatternAlgo algo, const pattern::TreePattern& tp);

/// The document-ordered index a pattern step with `axis` and `test`
/// scans: the per-tag element, attribute-name, text or all-node stream.
/// Empty for attribute wildcards, which are navigated instead.
const std::vector<const xml::Node*>& StepStream(const xml::Document& doc,
                                                Axis axis,
                                                const NodeTest& test);

class GovernorTicker;

/// The staircase region scan: the entries of the document-ordered
/// `stream` reachable from the context node set `ctx` (one document)
/// along `axis` (child, descendant or descendant-or-self), in document
/// order and without duplicates.
///  - On the descendant axes a context inside an earlier context's
///    subtree is pruned: its region is already covered.
///  - Each scanned region costs one binary-search skip (CountIndexSkip)
///    and a contiguous scan with one CountIndexEntries and one
///    gov->Tick() per entry.
///  - On the child axis only entries whose parent is the region's context
///    are kept.
///  - On descendant-or-self the contexts that match `test` are added.
/// A tripped `gov` ends the scan early with a truncated result; the
/// caller surfaces gov->status().
std::vector<const xml::Node*> ScanRegions(
    const std::vector<const xml::Node*>& stream,
    std::span<const xml::Node* const> ctx, Axis axis, const NodeTest& test,
    GovernorTicker* gov);

/// Sorts `nodes` into document order and removes duplicates: the one
/// finalization of the nested loop's bindings, of unsorted step results
/// and of context sets. A set already in document order and distinct costs
/// one pass and is left as it is.
void SortDedup(std::vector<const xml::Node*>* nodes);

/// The pattern context a TupleTreePattern reads from one row's context
/// field, which holds one item (exec/tuple.h): its node. An atomic item
/// is a TypeError; no layer below checks for one again.
[[nodiscard]]
Result<const xml::Node*> ContextNode(const xdm::Item& context);

/// Parallel-evaluation parameters (exec/parallel.h); EvalPattern takes an
/// optional pointer so pattern evaluation stays usable without the driver.
struct ParallelContext;

/// Evaluates `tp` over the context node set `context` (document-ordered
/// and duplicate-free, as SortDedup leaves it; asserted in Debug) with
/// the chosen algorithm. Returns the extraction point's distinct bindings
/// in document order. A context spanning two documents runs the nested
/// loop; a step outside the pattern grammar is Status::Internal. With a
/// non-null `par`, an evaluation whose root fan-out from a one-node
/// context crosses the morsel threshold runs on the parallel driver
/// (exec/parallel.h) with bit-identical results; everything else takes
/// the sequential path.
[[nodiscard]]
Result<std::vector<const xml::Node*>> EvalPattern(
    const pattern::TreePattern& tp, std::span<const xml::Node* const> context,
    PatternAlgo algo, const ParallelContext* par = nullptr);

/// The sequential dispatch behind EvalPattern: runs exactly one algorithm
/// (kCostBased resolves through the cost model first) without counting a
/// pattern evaluation. The morsel driver calls this per morsel so
/// ExecStats::pattern_evals stays exact — one count per operator
/// evaluation, however many morsels it fans out into.
[[nodiscard]]
Result<std::vector<const xml::Node*>> EvalPatternSequential(
    const pattern::TreePattern& tp, std::span<const xml::Node* const> context,
    PatternAlgo algo);

// The algorithms, behind EvalPattern: each takes a context node set and a
// pattern over the pattern axes; the index algorithms also take a context
// from one document.
[[nodiscard]]
Result<std::vector<const xml::Node*>> EvalPatternNL(
    const pattern::TreePattern& tp, std::span<const xml::Node* const> context);
[[nodiscard]]
Result<std::vector<const xml::Node*>> EvalPatternStaircase(
    const pattern::TreePattern& tp, std::span<const xml::Node* const> context);
[[nodiscard]]
Result<std::vector<const xml::Node*>> EvalPatternTwig(
    const pattern::TreePattern& tp, std::span<const xml::Node* const> context);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_PATTERN_EVAL_H_
