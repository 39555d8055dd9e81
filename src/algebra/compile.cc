#include "algebra/compile.h"

#include <unordered_map>
#include <unordered_set>

#include "common/fault_injection.h"
#include "core/typing.h"

namespace xqtp::algebra {

namespace {

using core::CoreExpr;
using core::CoreExprPtr;
using core::CoreKind;
using core::VarId;

/// How a Core variable is accessed from the plan being built.
struct Access {
  enum class Kind : uint8_t { kGlobal, kTupleField, kScoped } kind;
  Symbol field = kInvalidSymbol;  // kTupleField
};

using AccessEnv = std::unordered_map<VarId, Access>;

/// Collects the free variables of `e` (VarIds are unique, so any variable
/// that is referenced but not bound inside `e` is free).
void CollectVars(const CoreExpr& e, std::unordered_set<VarId>* refs,
                 std::unordered_set<VarId>* bound) {
  switch (e.kind) {
    case CoreKind::kVar:
      refs->insert(e.var);
      break;
    case CoreKind::kStep:
      refs->insert(e.var);
      break;
    case CoreKind::kLet:
      bound->insert(e.var);
      break;
    case CoreKind::kFor:
      bound->insert(e.var);
      if (e.pos_var != core::kNoVar) bound->insert(e.pos_var);
      break;
    case CoreKind::kTypeswitch:
      bound->insert(e.case_var);
      bound->insert(e.default_var);
      break;
    default:
      break;
  }
  for (const CoreExprPtr& c : e.children) CollectVars(*c, refs, bound);
  if (e.where) CollectVars(*e.where, refs, bound);
}

class Compiler {
 public:
  Compiler(const core::VarTable& vars, StringInterner* interner)
      : vars_(vars), interner_(interner),
        dot_field_(interner->Intern("dot")) {}

  Result<OpPtr> Run(const CoreExpr& e) {
    AccessEnv env;
    return CompileExpr(e, env);
  }

 private:
  /// True iff every free variable of a for's body/where other than the
  /// loop variable is a global — the "linear" case that compiles to the
  /// paper's tuple-operator form.
  bool IsLinearFor(const CoreExpr& f, const AccessEnv& env) const {
    if (f.pos_var != core::kNoVar) return false;
    std::unordered_set<VarId> refs;
    std::unordered_set<VarId> bound;
    CollectVars(*f.children[1], &refs, &bound);
    if (f.where) CollectVars(*f.where, &refs, &bound);
    for (VarId v : refs) {
      if (v == f.var || bound.count(v) > 0) continue;
      auto it = env.find(v);
      if (it != env.end() && it->second.kind != Access::Kind::kGlobal) {
        return false;
      }
      if (it == env.end() && !vars_.IsGlobal(v)) return false;
    }
    return true;
  }

  Result<OpPtr> CompileVar(VarId v, const AccessEnv& env) {
    auto it = env.find(v);
    if (it != env.end()) {
      switch (it->second.kind) {
        case Access::Kind::kTupleField: {
          OpPtr op = MakeOp(OpKind::kFieldAccess);
          op->field = it->second.field;
          return op;
        }
        case Access::Kind::kScoped: {
          OpPtr op = MakeOp(OpKind::kScopedVar);
          op->var = v;
          return op;
        }
        case Access::Kind::kGlobal:
          break;
      }
    }
    if (!vars_.IsGlobal(v)) {
      return Status::Internal("unbound variable $" + vars_.NameOf(v) +
                              " during compilation");
    }
    OpPtr op = MakeOp(OpKind::kGlobalVar);
    op->var = v;
    return op;
  }

  /// Compiles `for $x in seq (where w)? return body` in the linear case:
  ///   MapToItem{body'}((Select{w'})? (MapFromItem{[dot : IN]}(seq')))
  Result<OpPtr> CompileLinearFor(const CoreExpr& f, const AccessEnv& env) {
    XQTP_ASSIGN_OR_RETURN(OpPtr seq, CompileExpr(*f.children[0], env));

    OpPtr from = MakeOp(OpKind::kMapFromItem);
    from->field = dot_field_;
    from->dep = MakeOp(OpKind::kInputItem);
    from->inputs.push_back(std::move(seq));

    AccessEnv inner = env;
    inner[f.var] = Access{Access::Kind::kTupleField, dot_field_};

    OpPtr tuples = std::move(from);
    if (f.where) {
      XQTP_ASSIGN_OR_RETURN(OpPtr pred, CompileExpr(*f.where, inner));
      // The paper's plans wrap non-boolean predicates in fn:boolean
      // (plan P1) but compile comparisons bare (the Q2 plan).
      core::TypeEnv tenv;
      if (core::InferType(*f.where, vars_, tenv) !=
          core::AbstractType::kBoolean) {
        OpPtr wrapped = MakeOp(OpKind::kFnCall);
        wrapped->fn = core::CoreFn::kBoolean;
        wrapped->inputs.push_back(std::move(pred));
        pred = std::move(wrapped);
      }
      OpPtr select = MakeOp(OpKind::kSelect);
      select->dep = std::move(pred);
      select->inputs.push_back(std::move(tuples));
      tuples = std::move(select);
    }

    XQTP_ASSIGN_OR_RETURN(OpPtr body, CompileExpr(*f.children[1], inner));
    OpPtr to = MakeOp(OpKind::kMapToItem);
    to->dep = std::move(body);
    to->inputs.push_back(std::move(tuples));
    return to;
  }

  Result<OpPtr> CompileExpr(const CoreExpr& e, const AccessEnv& env) {
    switch (e.kind) {
      case CoreKind::kVar:
        return CompileVar(e.var, env);
      case CoreKind::kLiteral: {
        OpPtr op = MakeOp(OpKind::kConst);
        op->literal = e.literal;
        return op;
      }
      case CoreKind::kSequence: {
        OpPtr op = MakeOp(OpKind::kSequence);
        for (const CoreExprPtr& c : e.children) {
          XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*c, env));
          op->inputs.push_back(std::move(in));
        }
        return op;
      }
      case CoreKind::kStep: {
        XQTP_ASSIGN_OR_RETURN(OpPtr ctx, CompileVar(e.var, env));
        OpPtr op = MakeOp(OpKind::kTreeJoin);
        op->axis = e.axis;
        op->test = e.test;
        op->inputs.push_back(std::move(ctx));
        return op;
      }
      case CoreKind::kDdo: {
        XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*e.children[0], env));
        OpPtr op = MakeOp(OpKind::kDdo);
        op->inputs.push_back(std::move(in));
        return op;
      }
      case CoreKind::kFnCall: {
        OpPtr op = MakeOp(OpKind::kFnCall);
        op->fn = e.fn;
        for (const CoreExprPtr& c : e.children) {
          XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*c, env));
          op->inputs.push_back(std::move(in));
        }
        return op;
      }
      case CoreKind::kCompare: {
        OpPtr op = MakeOp(OpKind::kCompare);
        op->cmp_op = e.cmp_op;
        for (const CoreExprPtr& c : e.children) {
          XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*c, env));
          op->inputs.push_back(std::move(in));
        }
        return op;
      }
      case CoreKind::kArith: {
        OpPtr op = MakeOp(OpKind::kArith);
        op->arith_op = e.arith_op;
        for (const CoreExprPtr& c : e.children) {
          XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*c, env));
          op->inputs.push_back(std::move(in));
        }
        return op;
      }
      case CoreKind::kAnd:
      case CoreKind::kOr: {
        OpPtr op = MakeOp(e.kind == CoreKind::kAnd ? OpKind::kAnd
                                                   : OpKind::kOr);
        for (const CoreExprPtr& c : e.children) {
          XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*c, env));
          op->inputs.push_back(std::move(in));
        }
        return op;
      }
      case CoreKind::kIf: {
        OpPtr op = MakeOp(OpKind::kIf);
        for (const CoreExprPtr& c : e.children) {
          XQTP_ASSIGN_OR_RETURN(OpPtr in, CompileExpr(*c, env));
          op->inputs.push_back(std::move(in));
        }
        return op;
      }
      case CoreKind::kFor: {
        if (IsLinearFor(e, env)) return CompileLinearFor(e, env);
        // Out-of-fragment: scoped iteration.
        XQTP_ASSIGN_OR_RETURN(OpPtr seq, CompileExpr(*e.children[0], env));
        OpPtr op = MakeOp(OpKind::kForEach);
        op->var = e.var;
        op->pos_var = e.pos_var;
        op->inputs.push_back(std::move(seq));
        AccessEnv inner = env;
        inner[e.var] = Access{Access::Kind::kScoped, kInvalidSymbol};
        if (e.pos_var != core::kNoVar) {
          inner[e.pos_var] = Access{Access::Kind::kScoped, kInvalidSymbol};
        }
        if (e.where) {
          XQTP_ASSIGN_OR_RETURN(op->dep2, CompileExpr(*e.where, inner));
        }
        XQTP_ASSIGN_OR_RETURN(op->dep, CompileExpr(*e.children[1], inner));
        return op;
      }
      case CoreKind::kLet: {
        XQTP_ASSIGN_OR_RETURN(OpPtr binding, CompileExpr(*e.children[0], env));
        OpPtr op = MakeOp(OpKind::kLetIn);
        op->var = e.var;
        op->inputs.push_back(std::move(binding));
        AccessEnv inner = env;
        inner[e.var] = Access{Access::Kind::kScoped, kInvalidSymbol};
        XQTP_ASSIGN_OR_RETURN(op->dep, CompileExpr(*e.children[1], inner));
        return op;
      }
      case CoreKind::kTypeswitch: {
        XQTP_ASSIGN_OR_RETURN(OpPtr input, CompileExpr(*e.children[0], env));
        OpPtr op = MakeOp(OpKind::kTypeswitch);
        op->var = e.case_var;
        op->pos_var = e.default_var;
        op->inputs.push_back(std::move(input));
        AccessEnv inner = env;
        inner[e.case_var] = Access{Access::Kind::kScoped, kInvalidSymbol};
        inner[e.default_var] = Access{Access::Kind::kScoped, kInvalidSymbol};
        XQTP_ASSIGN_OR_RETURN(op->dep, CompileExpr(*e.children[1], inner));
        XQTP_ASSIGN_OR_RETURN(op->dep2, CompileExpr(*e.children[2], inner));
        return op;
      }
    }
    return Status::Internal("unreachable core kind in compilation");
  }

  const core::VarTable& vars_;
  StringInterner* interner_;
  Symbol dot_field_;
};

}  // namespace

Result<OpPtr> Compile(const core::CoreExpr& e, const core::VarTable& vars,
                      StringInterner* interner) {
  XQTP_FAULT_POINT("algebra.compile");
  Compiler c(vars, interner);
  return c.Run(e);
}

}  // namespace xqtp::algebra
