// Cost-based tree-pattern algorithm selection — the paper's concluding
// future-work item: "Clearly, an accurate cost model is needed."
//
// The model estimates, per algorithm, the number of node visits / index
// entries touched for evaluating a pattern over a given context, using
// per-document statistics (node count, average fan-out, per-tag stream
// sizes) and the contexts' depths (deep contexts cover exponentially
// smaller index windows). It reproduces the paper's Section 5 decision
// heuristics:
//   - index algorithms (SC/TJ) win on rooted patterns,
//   - the nested-loop join wins on highly selective contexts (Section 5.3),
//   - the holistic twig join overtakes staircase join as patterns branch.
#ifndef XQTP_EXEC_COST_MODEL_H_
#define XQTP_EXEC_COST_MODEL_H_

#include "exec/pattern_eval.h"
#include "xml/document.h"

namespace xqtp::exec {

/// Per-document statistics used by the cost model (an alias of the
/// lazily-computed xml::DocumentStats — cached on the document itself).
using DocStats = xml::DocumentStats;

/// Returns the cached statistics of `doc`.
const DocStats& StatsFor(const xml::Document& doc);

/// Estimated cost (abstract node-visit units) of evaluating `tp` over the
/// given contexts with `algo`. When `algo` hands `tp` to the nested loop
/// (HandlesPatternShape), this is the nested-loop estimate.
double EstimateCost(const pattern::TreePattern& tp,
                    const xdm::Sequence& context, PatternAlgo algo);

/// The cheapest algorithm for this pattern/context per the model.
PatternAlgo ChooseAlgorithm(const pattern::TreePattern& tp,
                            const xdm::Sequence& context);

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_COST_MODEL_H_
