// Cross-evaluator oracle: the paper's central claim that every physical
// pattern algorithm computes the same operator semantics (Section 4.1
// bindings, in document order) is checked dynamically by running
// the same pattern — or whole plan — through all three algorithms and
// asserting identical ordered results. The "Demythization" comparison
// (PAPERS.md) shows holistic vs. binary evaluators are exactly where
// silent divergence hides; this oracle turns such divergence into a
// reported counterexample instead of a wrong answer.
#ifndef XQTP_ANALYSIS_CROSS_CHECK_H_
#define XQTP_ANALYSIS_CROSS_CHECK_H_

#include <span>
#include <vector>

#include "algebra/ops.h"
#include "common/status.h"
#include "core/ast.h"
#include "exec/evaluator.h"
#include "exec/pattern_eval.h"
#include "pattern/tree_pattern.h"

namespace xqtp::analysis {

/// The algorithms the oracle exercises: all three physical pattern
/// algorithms. kCostBased is excluded — it delegates to one of these.
const std::vector<exec::PatternAlgo>& CrossCheckAlgos();

/// Item equality as the differential oracles need it: Item::operator==
/// except that two NaN doubles agree — fn:number turns every witness
/// where its argument is absent into NaN, and IEEE NaN != NaN would make
/// identical before/after forms "diverge".
bool ItemsAgree(const xdm::Item& a, const xdm::Item& b);

/// Evaluates `tp` over the context node set `context` (exec::SortDedup)
/// with every algorithm and compares the bound nodes against the
/// nested-loop reference. Returns Internal on the first divergence, naming
/// the algorithm, the pattern, and the first differing node index.
[[nodiscard]]
Status CrossCheckPattern(const pattern::TreePattern& tp,
                         std::span<const xml::Node* const> context,
                         const StringInterner& interner);

/// Whole-pipeline differential check for one compiled query under fixed
/// global bindings.
struct CrossCheckInput {
  /// The rewritten Core expression — the semantics reference (optional).
  const core::CoreExpr* reference = nullptr;
  /// The unoptimized plan (optional).
  const algebra::Op* unoptimized = nullptr;
  /// The optimized plan; required. When it contains TupleTreePattern
  /// operators it is evaluated once per algorithm.
  const algebra::Op* optimized = nullptr;
};

/// Runs every route (Core interpreter, unoptimized plan, optimized plan
/// x each pattern algorithm, and the optimized plan at batch sizes 2 and
/// 1 — the latter the per-row path, where no pattern is loop-lifted) and
/// compares all results against the first available route. Two erroring
/// routes agree regardless of message. Returns Internal naming the
/// diverging route on the first mismatch.
[[nodiscard]]
Status CrossCheck(const CrossCheckInput& in, const core::VarTable& vars,
                  const exec::Bindings& bindings);

}  // namespace xqtp::analysis

#endif  // XQTP_ANALYSIS_CROSS_CHECK_H_
