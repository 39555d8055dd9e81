// Evaluation of algebra plans. Tuple operators execute batch-at-a-time —
// a pipeline of columnar TupleBatches (exec/tuple.h) streaming between
// pipeline-able operators. TupleTreePattern dispatches to the configured
// physical algorithm (NLJoin / Staircase / Twig, or the cost model's
// per-evaluation choice). A pattern that depends on the current tuple is
// loop-lifted: evaluated once over the contexts of every row of a batch
// (EvalPatternLifted), not once per row.
#ifndef XQTP_EXEC_EVALUATOR_H_
#define XQTP_EXEC_EVALUATOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "algebra/ops.h"
#include "common/status.h"
#include "core/ast.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "exec/tuple.h"

namespace xqtp::exec {

struct EvalOptions {
  PatternAlgo algo = PatternAlgo::kNLJoin;
  /// Threads per TupleTreePattern evaluation: 0 (default) = one per
  /// hardware thread, 1 = the sequential path, N = the calling thread plus
  /// up to N - 1 parked workers, borrowed only while an evaluation runs
  /// its morsels (exec/parallel.h RunMorsels). Results are identical at
  /// any thread count; only the ExecStats attribution of driver-side index
  /// scans can differ.
  int threads = 0;
  /// Minimum root fan-out (the root step's candidates from a one-node
  /// context) before a pattern evaluation is morselized.
  int parallel_min_fanout = 256;
  /// Monotonic wall-clock deadline. When set, governor checks compare
  /// steady_clock::now() against it and the evaluation returns
  /// kDeadlineExceeded once it expires (cooperatively — the verdict
  /// surfaces at the next operator boundary / inner-loop stride).
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Budget (bytes) for governor-accounted materialized intermediates;
  /// 0 = unlimited. Exceeding it returns kResourceExhausted. Accounting
  /// is approximate (sizeof-based, per materialized sequence/tuple batch;
  /// see DESIGN.md "Resource governance").
  int64_t memory_budget_bytes = 0;
  /// External cancellation token, shared with whoever may cancel. A
  /// Cancel() from any thread makes the evaluation return kCancelled at
  /// the next governor check. Null = not cancellable.
  std::shared_ptr<CancelToken> cancel_token;
  /// Target rows per TupleBatch (minimum 1). Results are identical at
  /// any size. Small values force multi-batch streams — the cross-check
  /// oracle and unit tests use them to exercise batch boundaries.
  int tuple_batch_rows = 1024;

  /// True when any governor limit is set (a QueryGovernor is installed
  /// for the evaluation only in that case — otherwise checks are free).
  bool HasGovernorLimits() const {
    return deadline.has_value() || memory_budget_bytes > 0 ||
           cancel_token != nullptr;
  }
};

/// Values for the query's global variables.
using Bindings = std::unordered_map<core::VarId, xdm::Sequence>;

/// A tree pattern's bindings for every logical row of one TupleBatch,
/// flat: row r's bound nodes are
/// nodes[offsets[r], offsets[r + 1]) — distinct and in document order,
/// exactly what EvalPattern over that row's context alone returns.
struct LiftedBindings {
  std::vector<const xml::Node*> nodes;
  std::vector<size_t> offsets;  ///< rows + 1 entries
};

/// Loop-lifted evaluation of `tp` over the context node of every row of
/// `in` (one item per field, exec/tuple.h): one EvalPattern, so one
/// counted pattern evaluation, per layer of the batch's distinct contexts
/// in which no context lies inside another, instead of one per row. The
/// contexts are sorted into document order only when the rows do not
/// already arrive in it. Pattern axes only go down or stay put, so a
/// layer's bindings are the disjoint union of its contexts' own, and one
/// merge over document order hands each binding to its context; a row's
/// bindings are its context's. A non-node context item is a TypeError, as
/// in ContextNode.
[[nodiscard]]
Result<LiftedBindings> EvalPatternLifted(const pattern::TreePattern& tp,
                                         const TupleBatch& in,
                                         PatternAlgo algo,
                                         const ParallelContext* par = nullptr);

/// Evaluates a compiled (item) plan against global bindings.
[[nodiscard]]
Result<xdm::Sequence> Evaluate(const algebra::Op& plan,
                               const core::VarTable& vars,
                               const Bindings& bindings,
                               const EvalOptions& opts = {});

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_EVALUATOR_H_
