#include "core/rewrite.h"

#include <unordered_set>

#include "analysis/core_verifier.h"
#include "analysis/equiv_checker.h"
#include "common/fault_injection.h"
#include "core/odf.h"
#include "core/typing.h"
#include "exec/governor.h"

namespace xqtp::core {

namespace {

/// The rewrite rule families recurse once per Core nesting level; a tree
/// deeper than this fails cleanly (kResourceExhausted) before the first
/// family risks the C++ stack. Computed iteratively — the checker itself
/// must not recurse.
constexpr int kMaxRewriteDepth = 2500;

int CoreDepth(const CoreExpr& root) {
  int max_depth = 0;
  std::vector<std::pair<const CoreExpr*, int>> stack{{&root, 1}};
  while (!stack.empty()) {
    auto [e, d] = stack.back();
    stack.pop_back();
    if (d > max_depth) max_depth = d;
    for (const CoreExprPtr& c : e->children) {
      stack.push_back({c.get(), d + 1});
    }
    if (e->where) stack.push_back({e->where.get(), d + 1});
  }
  return max_depth;
}

/// True iff `v` appears as the context variable of some step in `e` —
/// such occurrences can only be substituted by another variable.
bool UsedAsStepContext(const CoreExpr& e, VarId v) {
  if (e.kind == CoreKind::kStep && e.var == v) return true;
  for (const CoreExprPtr& c : e.children) {
    if (UsedAsStepContext(*c, v)) return true;
  }
  if (e.where && UsedAsStepContext(*e.where, v)) return true;
  return false;
}

// ---- Type rewritings -------------------------------------------------------

void TypeSimplify(CoreExprPtr* e, const VarTable& vars, TypeEnv* env,
                  bool* changed) {
  CoreExpr& n = **e;
  switch (n.kind) {
    case CoreKind::kLet: {
      TypeSimplify(&n.children[0], vars, env, changed);
      (*env)[n.var] = InferType(*n.children[0], vars, *env);
      TypeSimplify(&n.children[1], vars, env, changed);
      break;
    }
    case CoreKind::kFor: {
      TypeSimplify(&n.children[0], vars, env, changed);
      (*env)[n.var] = InferType(*n.children[0], vars, *env);
      if (n.pos_var != kNoVar) (*env)[n.pos_var] = AbstractType::kNumeric;
      if (n.where) TypeSimplify(&n.where, vars, env, changed);
      TypeSimplify(&n.children[1], vars, env, changed);
      break;
    }
    case CoreKind::kTypeswitch: {
      TypeSimplify(&n.children[0], vars, env, changed);
      AbstractType it = InferType(*n.children[0], vars, *env);
      (*env)[n.case_var] = AbstractType::kNumeric;
      (*env)[n.default_var] = it;
      TypeSimplify(&n.children[1], vars, env, changed);
      TypeSimplify(&n.children[2], vars, env, changed);
      // Paper rule 1: the numeric case can never fire -> keep default only.
      if (DefinitelyNotNumeric(it)) {
        CoreExprPtr repl = MakeLet(n.default_var, std::move(n.children[0]),
                                   std::move(n.children[2]));
        *e = std::move(repl);
        *changed = true;
        return;
      }
      // Paper rule 2: the numeric case always fires -> bypass typeswitch.
      if (DefinitelyNumeric(it)) {
        CoreExprPtr repl = MakeLet(n.case_var, std::move(n.children[0]),
                                   std::move(n.children[1]));
        *e = std::move(repl);
        *changed = true;
        return;
      }
      break;
    }
    default:
      for (CoreExprPtr& c : n.children) TypeSimplify(&c, vars, env, changed);
      if (n.where) TypeSimplify(&n.where, vars, env, changed);
      break;
  }
  // fn:boolean on an already-boolean expression is the identity.
  CoreExpr& m = **e;
  if (m.kind == CoreKind::kFnCall && m.fn == CoreFn::kBoolean &&
      m.children.size() == 1 &&
      InferType(*m.children[0], vars, *env) == AbstractType::kBoolean) {
    CoreExprPtr inner = std::move(m.children[0]);
    *e = std::move(inner);
    *changed = true;
  }
}

// ---- FLWOR rewritings ------------------------------------------------------

/// Variables statically known to be bound to exactly one item: for-loop
/// variables and query globals (singleton documents by contract).
using SingletonSet = std::unordered_set<VarId>;

void FlworSimplify(CoreExprPtr* e, SingletonSet* singletons, bool* changed) {
  CoreExpr& n = **e;
  if (n.kind == CoreKind::kFor) {
    singletons->insert(n.var);
    if (n.pos_var != kNoVar) singletons->insert(n.pos_var);
  }
  for (CoreExprPtr& c : n.children) {
    FlworSimplify(&c, singletons, changed);
  }
  if (n.where) FlworSimplify(&n.where, singletons, changed);

  switch (n.kind) {
    case CoreKind::kLet: {
      CoreExpr& binding = *n.children[0];
      CoreExpr& body = *n.children[1];
      int uses = CountUses(body, n.var);
      // Rule: unused let binding disappears.
      if (uses == 0) {
        CoreExprPtr repl = std::move(n.children[1]);
        *e = std::move(repl);
        *changed = true;
        return;
      }
      // Rule: inline variables and literals always; other bindings only
      // when used exactly once. Step contexts accept only variables.
      bool trivially_inlinable = binding.kind == CoreKind::kVar ||
                                 binding.kind == CoreKind::kLiteral;
      bool can_place = binding.kind == CoreKind::kVar ||
                       !UsedAsStepContext(body, n.var);
      if ((trivially_inlinable || uses == 1) && can_place) {
        Substitute(&body, n.var, binding);
        CoreExprPtr repl = std::move(n.children[1]);
        *e = std::move(repl);
        *changed = true;
        return;
      }
      break;
    }
    case CoreKind::kFor: {
      // Rule: drop an unused positional variable.
      if (n.pos_var != kNoVar) {
        int uses = CountUses(*n.children[1], n.pos_var);
        if (n.where) uses += CountUses(*n.where, n.pos_var);
        if (uses == 0) {
          n.pos_var = kNoVar;
          *changed = true;
        }
      }
      // where fn:boolean(X) === where X (where applies the EBV anyway).
      if (n.where && n.where->kind == CoreKind::kFnCall &&
          n.where->fn == CoreFn::kBoolean && n.where->children.size() == 1) {
        CoreExprPtr inner = std::move(n.where->children[0]);
        n.where = std::move(inner);
        *changed = true;
      }
      // for $x in E return $x (no where / position) === E.
      if (n.pos_var == kNoVar && !n.where &&
          n.children[1]->kind == CoreKind::kVar &&
          n.children[1]->var == n.var) {
        CoreExprPtr repl = std::move(n.children[0]);
        *e = std::move(repl);
        *changed = true;
        return;
      }
      // for $x in $v return body === body[$x := $v] when $v is a for
      // variable (a singleton by construction): iterating a one-item
      // sequence is variable renaming. This collapses the focus loops
      // that path normalization builds over FLWOR variables (query Q1c).
      // Globals are excluded deliberately: the paper's canonical form
      // keeps the bottom "for $dot in $d" loop (it becomes the plan's
      // MapFromItem source).
      if (n.pos_var == kNoVar && !n.where &&
          n.children[0]->kind == CoreKind::kVar &&
          singletons->count(n.children[0]->var) > 0) {
        Substitute(n.children[1].get(), n.var, *n.children[0]);
        CoreExprPtr repl = std::move(n.children[1]);
        *e = std::move(repl);
        *changed = true;
        return;
      }
      break;
    }
    case CoreKind::kIf: {
      // if (true) then A else B === A; if (false) === B.
      CoreExpr& cond = *n.children[0];
      if (cond.kind == CoreKind::kLiteral && cond.literal.IsBoolean()) {
        CoreExprPtr repl = std::move(n.children[cond.literal.boolean() ? 1 : 2]);
        *e = std::move(repl);
        *changed = true;
        return;
      }
      break;
    }
    default:
      break;
  }
}

// ---- Document order rewritings ---------------------------------------------

/// Context insensitivity: an enclosing operator that will re-establish
/// document order (resp. discard duplicates) lets us strip inner ddo calls
/// even when their input is not statically ordered/duplicate-free.
struct DdoCtx {
  bool order_insensitive = false;
  bool dup_insensitive = false;
};

void StripDdo(CoreExprPtr* e, DdoCtx ctx, const VarTable& vars, OdfEnv* env,
              bool* changed) {
  CoreExpr& n = **e;
  switch (n.kind) {
    case CoreKind::kDdo: {
      StripDdo(&n.children[0], {true, true}, vars, env, changed);
      OdfProps p = ComputeOdf(*n.children[0], vars, *env);
      if (p.OrderedDupFree() ||
          (ctx.order_insensitive && ctx.dup_insensitive)) {
        CoreExprPtr repl = std::move(n.children[0]);
        *e = std::move(repl);
        *changed = true;
      }
      return;
    }
    case CoreKind::kLet: {
      // The binding may be used several times in contexts with different
      // sensitivities; stay conservative (only statically-ODF ddos go).
      StripDdo(&n.children[0], {false, false}, vars, env, changed);
      (*env)[n.var] = ComputeOdf(*n.children[0], vars, *env);
      StripDdo(&n.children[1], ctx, vars, env, changed);
      return;
    }
    case CoreKind::kFor: {
      // Iterator order determines output order; iterator duplicates
      // duplicate outputs. Both are fine if the context does not care —
      // unless a positional variable observes the iteration.
      bool no_pos = n.pos_var == kNoVar;
      StripDdo(&n.children[0],
               {ctx.order_insensitive && no_pos,
                ctx.dup_insensitive && no_pos},
               vars, env, changed);
      (*env)[n.var] = OdfProps::Singleton();
      if (n.pos_var != kNoVar) (*env)[n.pos_var] = OdfProps::Singleton();
      // The where clause is consumed through the effective boolean value:
      // fully insensitive.
      if (n.where) StripDdo(&n.where, {true, true}, vars, env, changed);
      StripDdo(&n.children[1], ctx, vars, env, changed);
      return;
    }
    case CoreKind::kIf:
      StripDdo(&n.children[0], {true, true}, vars, env, changed);
      StripDdo(&n.children[1], ctx, vars, env, changed);
      StripDdo(&n.children[2], ctx, vars, env, changed);
      return;
    case CoreKind::kFnCall: {
      DdoCtx arg_ctx{false, false};
      switch (n.fn) {
        case CoreFn::kBoolean:
        case CoreFn::kNot:
        case CoreFn::kEmpty:
        case CoreFn::kExists:
          arg_ctx = {true, true};  // existence tests
          break;
        case CoreFn::kCount:
        case CoreFn::kSum:
          arg_ctx = {true, false};  // order-insensitive, duplicate-sensitive
          break;
        case CoreFn::kRoot:
        case CoreFn::kData:
        case CoreFn::kString:
        case CoreFn::kNumber:
        case CoreFn::kStringLength:
        case CoreFn::kConcat:
        case CoreFn::kContains:
        case CoreFn::kStartsWith:
          arg_ctx = {false, false};
          break;
      }
      for (CoreExprPtr& c : n.children) {
        StripDdo(&c, arg_ctx, vars, env, changed);
      }
      return;
    }
    case CoreKind::kArith:
      // Operands must be singletons; removing a ddo could change an
      // operand's multiplicity (and hence error behaviour) — stay
      // conservative.
      for (CoreExprPtr& c : n.children) {
        StripDdo(&c, {false, false}, vars, env, changed);
      }
      return;
    case CoreKind::kCompare:
      // General comparisons are existential over both operands.
      for (CoreExprPtr& c : n.children) {
        StripDdo(&c, {true, true}, vars, env, changed);
      }
      return;
    case CoreKind::kAnd:
    case CoreKind::kOr:
      for (CoreExprPtr& c : n.children) {
        StripDdo(&c, {true, true}, vars, env, changed);
      }
      return;
    case CoreKind::kTypeswitch: {
      StripDdo(&n.children[0], {false, false}, vars, env, changed);
      OdfProps it = ComputeOdf(*n.children[0], vars, *env);
      (*env)[n.case_var] = it;
      (*env)[n.default_var] = it;
      StripDdo(&n.children[1], ctx, vars, env, changed);
      StripDdo(&n.children[2], ctx, vars, env, changed);
      return;
    }
    case CoreKind::kSequence:
      for (CoreExprPtr& c : n.children) StripDdo(&c, ctx, vars, env, changed);
      return;
    case CoreKind::kVar:
    case CoreKind::kLiteral:
    case CoreKind::kStep:
      return;
  }
}

// ---- Loop split ------------------------------------------------------------

void LoopSplit(CoreExprPtr* e, bool* changed) {
  CoreExpr& n = **e;
  for (CoreExprPtr& c : n.children) LoopSplit(&c, changed);
  if (n.where) LoopSplit(&n.where, changed);

  if (n.kind != CoreKind::kFor) return;
  if (n.pos_var != kNoVar) return;
  CoreExprPtr& body = n.children[1];
  if (body->kind != CoreKind::kFor) return;
  CoreExpr& inner = *body;
  // The paper's guard: the rule does not hold when a positional variable
  // observes either loop.
  if (inner.pos_var != kNoVar) return;
  // $x must leave scope of the inner condition and return expression.
  if (Uses(*inner.children[1], n.var)) return;
  if (inner.where && Uses(*inner.where, n.var)) return;

  //   for $x in E1 (where W1)? return for $y in E2 (where W2)? return E3
  // becomes
  //   for $y in (for $x in E1 (where W1)? return E2) (where W2)? return E3
  CoreExprPtr new_iter =
      MakeFor(n.var, kNoVar, std::move(n.children[0]), std::move(n.where),
              std::move(inner.children[0]));
  CoreExprPtr repl =
      MakeFor(inner.var, kNoVar, std::move(new_iter), std::move(inner.where),
              std::move(inner.children[1]));
  *e = std::move(repl);
  *changed = true;
  // The rebuilt node may enable another split directly above/below.
  LoopSplit(e, changed);
}

// ---- test-only unsound rule ------------------------------------------------

/// Intentionally wrong rewrite behind RewriteOptions::
/// unsound_ddo_strip_for_testing: fs:ddo(E) -> E with no ordered/
/// duplicate-free justification. Exists so the translation-validation
/// oracle's own tests have a realistic rule bug to detect.
void UnsoundStripAllDdo(CoreExprPtr* e, bool* changed) {
  CoreExpr& n = **e;
  for (CoreExprPtr& c : n.children) UnsoundStripAllDdo(&c, changed);
  if (n.where) UnsoundStripAllDdo(&n.where, changed);
  if (n.kind == CoreKind::kDdo) {
    CoreExprPtr repl = std::move(n.children[0]);
    *e = std::move(repl);
    *changed = true;
  }
}

}  // namespace

Result<CoreExprPtr> RewriteToTPNF(CoreExprPtr e, VarTable* vars,
                                  const RewriteOptions& opts) {
  if (int depth = CoreDepth(*e); depth > kMaxRewriteDepth) {
    return Status::ResourceExhausted(
        "Core expression nesting depth " + std::to_string(depth) +
        " exceeds the rewriter limit of " + std::to_string(kMaxRewriteDepth));
  }
  // Verifies the tree after a rule family changed it, attributing any
  // violation to that family via the ambient VerifyScope; with an
  // EquivChecker attached, additionally validates that the family
  // preserved semantics on the witness corpus (`before` is the snapshot
  // taken just before the family ran; null when no checker is attached).
  auto checkpoint = [&](analysis::VerifyScope* scope, bool fam_changed,
                        bool* changed, const CoreExprPtr& before) -> Status {
    if (!fam_changed) return Status::OK();
    scope->MarkFired();
    *changed = true;
    if (opts.verify) {
      XQTP_RETURN_NOT_OK(analysis::VerifyCore(*e, *vars));
    }
    if (opts.equiv != nullptr && before != nullptr) {
      XQTP_RETURN_NOT_OK(opts.equiv->CheckCore(*before, *e, *vars));
    }
    return Status::OK();
  };
  auto snapshot = [&]() -> CoreExprPtr {
    return opts.equiv != nullptr ? Clone(*e) : nullptr;
  };
  for (int round = 0; round < opts.max_rounds; ++round) {
    // Compile-time governance checkpoint: a deadline or cancellation set
    // on CompileOptions interrupts the fixpoint between rounds.
    XQTP_RETURN_NOT_OK(exec::GovernorPoll());
    XQTP_FAULT_POINT("core.rewrite.round");
    bool changed = false;
    if (opts.typeswitch_rules) {
      analysis::VerifyScope scope("core rewrite: typeswitch rules");
      CoreExprPtr before = snapshot();
      TypeEnv tenv;
      bool fam = false;
      TypeSimplify(&e, *vars, &tenv, &fam);
      XQTP_RETURN_NOT_OK(checkpoint(&scope, fam, &changed, before));
    }
    if (opts.flwor_rules) {
      analysis::VerifyScope scope("core rewrite: FLWOR rules");
      CoreExprPtr before = snapshot();
      SingletonSet singletons;
      bool fam = false;
      FlworSimplify(&e, &singletons, &fam);
      XQTP_RETURN_NOT_OK(checkpoint(&scope, fam, &changed, before));
    }
    if (opts.ddo_removal) {
      analysis::VerifyScope scope("core rewrite: ddo removal");
      CoreExprPtr before = snapshot();
      OdfEnv oenv;
      bool fam = false;
      StripDdo(&e, {false, false}, *vars, &oenv, &fam);
      XQTP_RETURN_NOT_OK(checkpoint(&scope, fam, &changed, before));
    }
    if (opts.loop_split) {
      analysis::VerifyScope scope("core rewrite: loop split");
      CoreExprPtr before = snapshot();
      bool fam = false;
      LoopSplit(&e, &fam);
      XQTP_RETURN_NOT_OK(checkpoint(&scope, fam, &changed, before));
    }
    if (opts.unsound_ddo_strip_for_testing) {
      analysis::VerifyScope scope("core rewrite: unsound ddo strip (test-only)");
      CoreExprPtr before = snapshot();
      bool fam = false;
      UnsoundStripAllDdo(&e, &fam);
      XQTP_RETURN_NOT_OK(checkpoint(&scope, fam, &changed, before));
    }
    if (!changed) break;
  }
  if (opts.verify) {
    // Verify the final tree once more: when no rule fired on this input,
    // this is its only check.
    analysis::VerifyScope scope("core rewrite: final tree");
    XQTP_RETURN_NOT_OK(analysis::VerifyCore(*e, *vars));
  }
  return e;
}

}  // namespace xqtp::core
