// Core AST verifier, pass (1) of the analysis subsystem: machine-checks
// the structural invariants every Core rewrite must preserve, in the
// spirit of LLVM's module verifier. Runs after normalization and after
// each TPNF' rewrite family, so a rule that breaks an invariant is caught
// at the checkpoint right after it fires.
//
// Invariants checked (each failure is a Status::Internal naming the
// invariant in [brackets]):
//  - [core-arity]          every node has the child/where shape its kind
//                          requires (kLet has 2 children, kIf has 3, a
//                          where clause only hangs off kFor, ...)
//  - [var-range]           every VarId referenced or bound is registered
//                          in the VarTable
//  - [def-before-use]      every kVar / kStep context variable is a query
//                          global or bound by an enclosing binder; in
//                          particular a positional variable is only
//                          visible under its own `for ... at` binder
//  - [duplicate-binder]    no VarId is bound twice (binders create unique
//                          VarIds by construction — substitution safety
//                          depends on it)
//  - [binder-is-global]    a binder never rebinds a query global
//  - [positional-binder]   `for $x at $p` binds two distinct variables
//  - [fn-arity]            kFnCall argument counts match CoreFnArity
#ifndef XQTP_ANALYSIS_CORE_VERIFIER_H_
#define XQTP_ANALYSIS_CORE_VERIFIER_H_

#include "common/status.h"
#include "core/ast.h"

namespace xqtp::analysis {

/// Verifies `e` against the invariants above. OK, or Status::Internal
/// naming the violated invariant, tagged with the active VerifyScope.
[[nodiscard]]
Status VerifyCore(const core::CoreExpr& e, const core::VarTable& vars);

}  // namespace xqtp::analysis

#endif  // XQTP_ANALYSIS_CORE_VERIFIER_H_
