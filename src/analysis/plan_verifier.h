// Algebra plan verifier, pass (2) of the analysis subsystem: checks every
// Op tree after compilation and after each optimize fixpoint round, so a
// rewrite rule that emits a malformed plan is caught at the checkpoint
// right after it fires (and attributed to it via VerifyScope).
//
// The verifier models the evaluator's contexts exactly: an item plan runs
// with an optional ambient tuple (dependent plans); a tuple plan runs
// against the ambient tuple of its enclosing dependent context. The
// current item (IN as item) exists only as a MapFromItem's dependent.
// Field sets are propagated through the pipeline the same way
// exec::Evaluate binds them.
//
// Invariants checked (each failure is a Status::Internal naming the
// invariant in [brackets]):
//  - [plan-sort]        tuple plans and item plans are never mixed: every
//                       input edge carries the sort its consumer expects
//                       (IsTuplePlan), and the root of a compiled query is
//                       an item plan
//  - [op-arity]         input counts per operator kind (Select has one
//                       input, If has three, ...)
//  - [dep-plan]         dependent sub-plans exist exactly where the kind
//                       calls for them (MapToItem/MapFromItem/Select/
//                       ForEach/LetIn/Typeswitch) and nowhere else
//  - [field-def-use]    no IN#field read and no TupleTreePattern context
//                       field that no upstream operator produces
//  - [tuple-context]    IN (tuple) only inside a dependent plan
//  - [item-context]     IN (item) only as a MapFromItem dependent
//  - [one-item-field]   a MapFromItem's dependent is IN (item), so every
//                       tuple field holds exactly one item (the column
//                       layout of exec/tuple.h)
//  - [invalid-field]    field symbols are valid and known to the interner
//  - [single-output]    a TupleTreePattern carries its output field
//  - [pattern-root]     a TupleTreePattern has a context field and at
//                       least one step
//  - [pattern-axis]     every step (main path and predicate branches)
//                       uses an axis the pattern grammar allows
//  - [pattern-test]     node tests are internally consistent (a name test
//                       carries a name, the others do not) and positional
//                       constraints are non-negative
//  - [scoped-var-scope] kScopedVar only references an enclosing ForEach/
//                       LetIn/Typeswitch binder
//  - [global-var]       kGlobalVar references a registered query global
//                       (when a VarTable is supplied)
//  - [fn-arity]         kFnCall argument counts match CoreFnArity
#ifndef XQTP_ANALYSIS_PLAN_VERIFIER_H_
#define XQTP_ANALYSIS_PLAN_VERIFIER_H_

#include "algebra/ops.h"
#include "common/status.h"

namespace xqtp::analysis {

struct PlanVerifyOptions {
  /// Enables the global/scoped variable checks when supplied.
  const core::VarTable* vars = nullptr;
  /// Enables symbol-validity checks when supplied.
  const StringInterner* interner = nullptr;
};

/// Verifies `plan` (an item plan, as produced by algebra::Compile) against
/// the invariants above. OK, or Status::Internal naming the violated
/// invariant, tagged with the active VerifyScope.
[[nodiscard]]
Status VerifyPlan(const algebra::Op& plan, const PlanVerifyOptions& opts = {});

}  // namespace xqtp::analysis

#endif  // XQTP_ANALYSIS_PLAN_VERIFIER_H_
