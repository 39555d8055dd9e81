#include "analysis/core_verifier.h"

#include <string>
#include <unordered_set>

#include "analysis/verify_scope.h"

namespace xqtp::analysis {

namespace {

using core::CoreExpr;
using core::CoreExprPtr;
using core::CoreKind;
using core::VarId;
using core::VarTable;

Status Violation(const char* invariant, const std::string& detail) {
  return VerifyScope::Tag(Status::Internal(
      std::string("core verifier: [") + invariant + "] " + detail));
}

class CoreVerifier {
 public:
  explicit CoreVerifier(const VarTable& vars) : vars_(vars) {}

  Status Run(const CoreExpr& e) {
    std::unordered_set<VarId> scope;
    return Check(e, &scope);
  }

 private:
  std::string NameOf(VarId v) const {
    if (v < 0 || v >= static_cast<VarId>(vars_.size())) {
      return "#" + std::to_string(v);
    }
    return "$" + vars_.NameOf(v);
  }

  Status CheckVarRange(VarId v) const {
    if (v < 0 || v >= static_cast<VarId>(vars_.size())) {
      return Violation("var-range", "variable id " + std::to_string(v) +
                                        " is not registered in the VarTable");
    }
    return Status::OK();
  }

  /// Registers a binder occurrence of `v` and adds it to `scope`.
  Status Bind(VarId v, std::unordered_set<VarId>* scope) {
    XQTP_RETURN_NOT_OK(CheckVarRange(v));
    if (vars_.IsGlobal(v)) {
      return Violation("binder-is-global",
                       "binder rebinds query global " + NameOf(v));
    }
    if (!bound_anywhere_.insert(v).second) {
      return Violation("duplicate-binder",
                       "variable " + NameOf(v) +
                           " is bound by more than one binder (VarIds must "
                           "be unique)");
    }
    scope->insert(v);
    return Status::OK();
  }

  Status CheckUse(VarId v, const std::unordered_set<VarId>& scope,
                  const char* what) {
    XQTP_RETURN_NOT_OK(CheckVarRange(v));
    if (!vars_.IsGlobal(v) && scope.count(v) == 0) {
      return Violation("def-before-use",
                       std::string(what) + " " + NameOf(v) +
                           " is neither a query global nor bound by an "
                           "enclosing binder");
    }
    return Status::OK();
  }

  Status CheckArity(const CoreExpr& e, size_t expect) const {
    if (e.children.size() != expect) {
      return Violation("core-arity",
                       "node expects " + std::to_string(expect) +
                           " children, has " +
                           std::to_string(e.children.size()));
    }
    return Status::OK();
  }

  Status Check(const CoreExpr& e, std::unordered_set<VarId>* scope) {
    if (e.where && e.kind != CoreKind::kFor) {
      return Violation("core-arity",
                       "a where clause is only valid on a for expression");
    }

    switch (e.kind) {
      case CoreKind::kVar:
        XQTP_RETURN_NOT_OK(CheckArity(e, 0));
        return CheckUse(e.var, *scope, "variable");
      case CoreKind::kLiteral:
        return CheckArity(e, 0);
      case CoreKind::kStep:
        XQTP_RETURN_NOT_OK(CheckArity(e, 0));
        return CheckUse(e.var, *scope, "step context variable");
      case CoreKind::kSequence:
        for (const CoreExprPtr& c : e.children) {
          XQTP_RETURN_NOT_OK(Check(*c, scope));
        }
        return Status::OK();
      case CoreKind::kLet: {
        XQTP_RETURN_NOT_OK(CheckArity(e, 2));
        XQTP_RETURN_NOT_OK(Check(*e.children[0], scope));
        XQTP_RETURN_NOT_OK(Bind(e.var, scope));
        Status st = Check(*e.children[1], scope);
        scope->erase(e.var);
        return st;
      }
      case CoreKind::kFor: {
        XQTP_RETURN_NOT_OK(CheckArity(e, 2));
        XQTP_RETURN_NOT_OK(Check(*e.children[0], scope));
        XQTP_RETURN_NOT_OK(Bind(e.var, scope));
        if (e.pos_var != core::kNoVar) {
          if (e.pos_var == e.var) {
            return Violation("positional-binder",
                             "for binds the same variable " + NameOf(e.var) +
                                 " as both item and position");
          }
          XQTP_RETURN_NOT_OK(Bind(e.pos_var, scope));
        }
        // The positional variable is visible only here — in the loop's
        // where clause and body, under its own binder.
        if (e.where) XQTP_RETURN_NOT_OK(Check(*e.where, scope));
        Status st = Check(*e.children[1], scope);
        scope->erase(e.var);
        if (e.pos_var != core::kNoVar) scope->erase(e.pos_var);
        return st;
      }
      case CoreKind::kIf:
        XQTP_RETURN_NOT_OK(CheckArity(e, 3));
        for (const CoreExprPtr& c : e.children) {
          XQTP_RETURN_NOT_OK(Check(*c, scope));
        }
        return Status::OK();
      case CoreKind::kDdo:
        XQTP_RETURN_NOT_OK(CheckArity(e, 1));
        return Check(*e.children[0], scope);
      case CoreKind::kFnCall: {
        int arity = core::CoreFnArity(e.fn);
        int have = static_cast<int>(e.children.size());
        if ((arity >= 0 && have != arity) || (arity < 0 && have < 2)) {
          return Violation(
              "fn-arity", std::string(core::CoreFnName(e.fn)) + " expects " +
                              (arity >= 0 ? std::to_string(arity)
                                          : std::string("at least 2")) +
                              " arguments, has " + std::to_string(have));
        }
        for (const CoreExprPtr& c : e.children) {
          XQTP_RETURN_NOT_OK(Check(*c, scope));
        }
        return Status::OK();
      }
      case CoreKind::kTypeswitch: {
        XQTP_RETURN_NOT_OK(CheckArity(e, 3));
        XQTP_RETURN_NOT_OK(Check(*e.children[0], scope));
        XQTP_RETURN_NOT_OK(Bind(e.case_var, scope));
        XQTP_RETURN_NOT_OK(Check(*e.children[1], scope));
        scope->erase(e.case_var);
        XQTP_RETURN_NOT_OK(Bind(e.default_var, scope));
        XQTP_RETURN_NOT_OK(Check(*e.children[2], scope));
        scope->erase(e.default_var);
        return Status::OK();
      }
      case CoreKind::kCompare:
      case CoreKind::kArith:
      case CoreKind::kAnd:
      case CoreKind::kOr:
        XQTP_RETURN_NOT_OK(CheckArity(e, 2));
        for (const CoreExprPtr& c : e.children) {
          XQTP_RETURN_NOT_OK(Check(*c, scope));
        }
        return Status::OK();
    }
    return Violation("core-arity", "unknown core node kind");
  }

  const VarTable& vars_;
  std::unordered_set<VarId> bound_anywhere_;
};

}  // namespace

Status VerifyCore(const core::CoreExpr& e, const core::VarTable& vars) {
  CoreVerifier verifier(vars);
  Status st = verifier.Run(e);
  if (st.ok()) VerifyScope::ClearFiredTrail();
  return st;
}

}  // namespace xqtp::analysis
