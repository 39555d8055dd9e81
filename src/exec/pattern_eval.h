// The physical tree-pattern algorithms behind TupleTreePattern. All three
// produce the operator semantics of Section 4.1: the distinct projected
// bindings of the pattern over the context nodes, in root-to-leaf lexical
// order (which coincides with XPath document order when the single output
// is at the extraction point).
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
// Both index algorithms, and the parallel driver's root-step expansion,
// read the tag streams through one staircase region scan (ScanRegions).
//
// The index-based algorithms handle single-output patterns (the only
// shape the optimizer emits); multi-output patterns, and the other shapes
// HandlesPatternShape rejects, fall back to the nested-loop algorithm,
// which enumerates full bindings.
#ifndef XQTP_EXEC_PATTERN_EVAL_H_
#define XQTP_EXEC_PATTERN_EVAL_H_

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
/// it hands `tp` to EvalPatternNL: a multi-output pattern (every index
/// algorithm), a non-pattern axis (TwigJoin) or a positional step
/// (TwigJoin). The algorithms and the cost model share this rule, so
/// the cost of a handoff is priced as the nested loop that actually runs.
bool HandlesPatternShape(PatternAlgo algo, const pattern::TreePattern& tp);

/// The document-ordered index a pattern step with `axis` and `test`
/// scans: the per-tag element, attribute-name, text or all-node stream.
/// Empty for attribute wildcards, which are navigated instead.
const std::vector<const xml::Node*>& StepStream(const xml::Document& doc,
                                                Axis axis,
                                                const NodeTest& test);

class GovernorTicker;

/// The staircase region scan: the entries of the document-ordered
/// `stream` reachable from the sorted, duplicate-free context nodes `ctx`
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
    const std::vector<const xml::Node*>& ctx, Axis axis, const NodeTest& test,
    GovernorTicker* gov);

/// Parallel-evaluation parameters (exec/parallel.h); EvalPattern takes an
/// optional pointer so pattern evaluation stays usable without the driver.
struct ParallelContext;

/// One projected binding: (output field, bound node) pairs in root-to-leaf
/// lexical order of the pattern's annotated steps.
struct BindingRow {
  std::vector<std::pair<Symbol, const xml::Node*>> fields;

  bool operator==(const BindingRow& other) const {
    return fields == other.fields;
  }
};

/// Evaluates `tp` over the given context nodes with the chosen algorithm.
/// `context` items must all be nodes. Returns distinct rows in lexical
/// order. With a non-null `par`, evaluations whose root fan-out crosses
/// the morsel threshold run on the parallel driver (exec/parallel.h) with
/// bit-identical results; everything else takes the sequential path.
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPattern(const pattern::TreePattern& tp,
                                            const xdm::Sequence& context,
                                            PatternAlgo algo,
                                            const ParallelContext* par = nullptr);

/// The sequential dispatch behind EvalPattern: runs exactly one algorithm
/// (kCostBased resolves through the cost model first) without counting a
/// pattern evaluation. The morsel driver calls this per morsel so
/// ExecStats::pattern_evals stays exact — one count per operator
/// evaluation, however many morsels it fans out into.
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternSequential(
    const pattern::TreePattern& tp, const xdm::Sequence& context,
    PatternAlgo algo);

/// The lexical row order of Section 4.1: document order of the bound
/// nodes, field by field in root-to-leaf order, shorter rows first on a
/// tie. FinalizeRows and the driver's morsel merge share this comparator,
/// which is what makes parallel results bit-identical.
bool RowLexLess(const BindingRow& a, const BindingRow& b);

/// Shared finalization: sorts rows lexically by document order of their
/// bound nodes and removes duplicates. Exposed for the algorithm
/// implementations and tests.
void FinalizeRows(std::vector<BindingRow>* rows);

// Individual algorithm entry points (used directly by unit tests).
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternNL(const pattern::TreePattern& tp,
                                              const xdm::Sequence& context);
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternStaircase(
    const pattern::TreePattern& tp, const xdm::Sequence& context);
[[nodiscard]]
Result<std::vector<BindingRow>> EvalPatternTwig(const pattern::TreePattern& tp,
                                                const xdm::Sequence& context);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_PATTERN_EVAL_H_
