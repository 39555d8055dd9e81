#include "analysis/plan_verifier.h"

#include <string>
#include <unordered_set>

#include "analysis/verify_scope.h"

namespace xqtp::analysis {

namespace {

using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using core::VarId;
using pattern::PatternNode;
using pattern::PatternNodePtr;
using pattern::TreePattern;

using FieldSet = std::unordered_set<Symbol>;

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kMapFromItem: return "MapFromItem";
    case OpKind::kSelect: return "Select";
    case OpKind::kTupleTreePattern: return "TupleTreePattern";
    case OpKind::kInputTuple: return "IN(tuple)";
    case OpKind::kMapToItem: return "MapToItem";
    case OpKind::kTreeJoin: return "TreeJoin";
    case OpKind::kDdo: return "ddo";
    case OpKind::kConst: return "Const";
    case OpKind::kGlobalVar: return "GlobalVar";
    case OpKind::kInputItem: return "IN(item)";
    case OpKind::kFieldAccess: return "IN#field";
    case OpKind::kFnCall: return "FnCall";
    case OpKind::kCompare: return "Compare";
    case OpKind::kArith: return "Arith";
    case OpKind::kAnd: return "And";
    case OpKind::kOr: return "Or";
    case OpKind::kSequence: return "Sequence";
    case OpKind::kIf: return "If";
    case OpKind::kForEach: return "ForEach";
    case OpKind::kLetIn: return "LetIn";
    case OpKind::kScopedVar: return "ScopedVar";
    case OpKind::kTypeswitch: return "Typeswitch";
  }
  return "?";
}

Status Violation(const char* invariant, const std::string& detail) {
  return VerifyScope::Tag(Status::Internal(
      std::string("plan verifier: [") + invariant + "] " + detail));
}

class PlanVerifier {
 public:
  explicit PlanVerifier(const PlanVerifyOptions& opts) : opts_(opts) {}

  Status Run(const Op& plan) {
    if (algebra::IsTuplePlan(plan.kind)) {
      return Violation("plan-sort",
                       std::string(OpName(plan.kind)) +
                           " at the plan root: a compiled query is an item "
                           "plan");
    }
    return CheckItem(plan, /*ambient=*/nullptr);
  }

 private:
  std::string FieldName(Symbol s) const {
    if (opts_.interner != nullptr && s >= 0 &&
        s < static_cast<Symbol>(opts_.interner->size())) {
      return opts_.interner->NameOf(s);
    }
    return "#" + std::to_string(s);
  }

  std::string VarName(VarId v) const {
    if (opts_.vars != nullptr && v >= 0 &&
        v < static_cast<VarId>(opts_.vars->size())) {
      return "$" + opts_.vars->NameOf(v);
    }
    return "$#" + std::to_string(v);
  }

  Status CheckField(Symbol s, const char* where) const {
    if (s == kInvalidSymbol) {
      return Violation("invalid-field",
                       std::string(where) + " carries no field symbol");
    }
    if (opts_.interner != nullptr &&
        (s < 0 || s >= static_cast<Symbol>(opts_.interner->size()))) {
      return Violation("invalid-field",
                       std::string(where) + " field symbol " +
                           std::to_string(s) + " is unknown to the interner");
    }
    return Status::OK();
  }

  Status CheckArity(const Op& op, size_t inputs) const {
    if (op.inputs.size() != inputs) {
      return Violation("op-arity", std::string(OpName(op.kind)) + " expects " +
                                       std::to_string(inputs) +
                                       " inputs, has " +
                                       std::to_string(op.inputs.size()));
    }
    return Status::OK();
  }

  /// dep / dep2 presence per operator kind.
  Status CheckDeps(const Op& op) const {
    bool want_dep = op.kind == OpKind::kMapFromItem ||
                    op.kind == OpKind::kMapToItem ||
                    op.kind == OpKind::kSelect ||
                    op.kind == OpKind::kForEach ||
                    op.kind == OpKind::kLetIn ||
                    op.kind == OpKind::kTypeswitch;
    if (want_dep != (op.dep != nullptr)) {
      return Violation("dep-plan",
                       std::string(OpName(op.kind)) +
                           (want_dep ? " requires a dependent plan"
                                     : " must not carry a dependent plan"));
    }
    bool may_dep2 =
        op.kind == OpKind::kForEach || op.kind == OpKind::kTypeswitch;
    if (op.dep2 != nullptr && !may_dep2) {
      return Violation("dep-plan", std::string(OpName(op.kind)) +
                                       " must not carry a second dependent "
                                       "plan");
    }
    if (op.kind == OpKind::kTypeswitch && op.dep2 == nullptr) {
      return Violation("dep-plan", "Typeswitch requires a default branch");
    }
    return Status::OK();
  }

  Status CheckNodeTest(const NodeTest& test, const char* where) const {
    if (test.kind == NodeTestKind::kName) {
      if (test.name == kInvalidSymbol) {
        return Violation("pattern-test", std::string(where) +
                                             " name test carries no name");
      }
      if (opts_.interner != nullptr &&
          (test.name < 0 ||
           test.name >= static_cast<Symbol>(opts_.interner->size()))) {
        return Violation("pattern-test",
                         std::string(where) + " name test symbol " +
                             std::to_string(test.name) +
                             " is unknown to the interner");
      }
    } else if (test.name != kInvalidSymbol) {
      return Violation("pattern-test",
                       std::string(where) +
                           " non-name test carries a stray name symbol");
    }
    return Status::OK();
  }

  Status CheckPatternNode(const PatternNode& n) const {
    if (!AxisAllowedInPattern(n.axis)) {
      return Violation("pattern-axis",
                       std::string(AxisName(n.axis)) +
                           " axis is not in the pattern grammar (downward "
                           "axes only)");
    }
    XQTP_RETURN_NOT_OK(CheckNodeTest(n.test, "pattern step"));
    if (n.position < 0) {
      return Violation("pattern-test",
                       "pattern step carries a negative positional "
                       "constraint");
    }
    for (const PatternNodePtr& p : n.predicates) {
      XQTP_RETURN_NOT_OK(CheckPatternNode(*p));
    }
    if (n.next) XQTP_RETURN_NOT_OK(CheckPatternNode(*n.next));
    return Status::OK();
  }

  Status CheckPattern(const TreePattern& tp) const {
    if (tp.root == nullptr) {
      return Violation("pattern-root", "TupleTreePattern has no steps");
    }
    XQTP_RETURN_NOT_OK(CheckField(tp.input_field, "pattern context"));
    XQTP_RETURN_NOT_OK(CheckPatternNode(*tp.root));
    if (tp.output == kInvalidSymbol) {
      return Violation("single-output",
                       "TupleTreePattern annotates no output field");
    }
    return CheckField(tp.output, "pattern output");
  }

  /// Verifies a tuple plan evaluated against ambient tuple fields
  /// `ambient` (nullptr outside any dependent context) and computes the
  /// field set of the tuples it produces.
  Status CheckTuple(const Op& op, const FieldSet* ambient, FieldSet* produced) {
    XQTP_RETURN_NOT_OK(CheckDeps(op));
    switch (op.kind) {
      case OpKind::kInputTuple:
        XQTP_RETURN_NOT_OK(CheckArity(op, 0));
        if (ambient == nullptr) {
          return Violation("tuple-context",
                           "IN (tuple) used outside a dependent plan");
        }
        *produced = *ambient;
        return Status::OK();
      case OpKind::kMapFromItem: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        XQTP_RETURN_NOT_OK(CheckField(op.field, "MapFromItem"));
        // The dependent is IN, the current item, so the field holds
        // exactly that one item (the layout of exec/tuple.h).
        if (op.dep->kind != OpKind::kInputItem) {
          return Violation("one-item-field",
                           "MapFromItem dependent is " +
                               std::string(OpName(op.dep->kind)) +
                               ", not IN (item): a tuple field holds one "
                               "item");
        }
        XQTP_RETURN_NOT_OK(CheckDeps(*op.dep));
        XQTP_RETURN_NOT_OK(CheckArity(*op.dep, 0));
        // The item input runs in the enclosing context.
        XQTP_RETURN_NOT_OK(CheckItem(*op.inputs[0], ambient));
        produced->clear();
        produced->insert(op.field);
        return Status::OK();
      }
      case OpKind::kSelect: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        FieldSet in;
        XQTP_RETURN_NOT_OK(CheckTuple(*op.inputs[0], ambient, &in));
        XQTP_RETURN_NOT_OK(CheckItem(*op.dep, &in));
        *produced = std::move(in);
        return Status::OK();
      }
      case OpKind::kTupleTreePattern: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        XQTP_RETURN_NOT_OK(CheckPattern(op.tp));
        FieldSet in;
        XQTP_RETURN_NOT_OK(CheckTuple(*op.inputs[0], ambient, &in));
        if (in.count(op.tp.input_field) == 0) {
          return Violation("field-def-use",
                           "TupleTreePattern context field " +
                               FieldName(op.tp.input_field) +
                               " is produced by no upstream operator");
        }
        in.insert(op.tp.output);
        *produced = std::move(in);
        return Status::OK();
      }
      default:
        return Violation("plan-sort", std::string(OpName(op.kind)) +
                                          " used where a tuple plan is "
                                          "expected");
    }
  }

  /// Verifies an item plan evaluated against ambient tuple fields
  /// `ambient` (nullptr outside any dependent context).
  Status CheckItem(const Op& op, const FieldSet* ambient) {
    if (algebra::IsTuplePlan(op.kind)) {
      return Violation("plan-sort", std::string(OpName(op.kind)) +
                                        " used where an item plan is "
                                        "expected");
    }
    XQTP_RETURN_NOT_OK(CheckDeps(op));
    switch (op.kind) {
      case OpKind::kConst:
        return CheckArity(op, 0);
      case OpKind::kGlobalVar: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 0));
        if (op.var == core::kNoVar) {
          return Violation("global-var", "GlobalVar carries no variable");
        }
        if (opts_.vars != nullptr) {
          if (op.var < 0 ||
              op.var >= static_cast<VarId>(opts_.vars->size())) {
            return Violation("global-var",
                             "GlobalVar id " + std::to_string(op.var) +
                                 " is not registered in the VarTable");
          }
          if (!opts_.vars->IsGlobal(op.var)) {
            return Violation("global-var",
                             VarName(op.var) + " is not a query global");
          }
        }
        return Status::OK();
      }
      case OpKind::kInputItem:
        // A MapFromItem checks its own dependent: no item plan sees a
        // current item.
        return Violation("item-context",
                         "IN (item) used outside a MapFromItem dependent "
                         "plan");
      case OpKind::kFieldAccess: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 0));
        XQTP_RETURN_NOT_OK(CheckField(op.field, "IN#field"));
        if (ambient == nullptr) {
          return Violation("tuple-context",
                           "IN#" + FieldName(op.field) +
                               " used outside a tuple context");
        }
        if (ambient->count(op.field) == 0) {
          return Violation("field-def-use",
                           "IN#" + FieldName(op.field) +
                               " reads a field produced by no upstream "
                               "operator");
        }
        return Status::OK();
      }
      case OpKind::kTreeJoin:
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        XQTP_RETURN_NOT_OK(CheckNodeTest(op.test, "TreeJoin"));
        return CheckItem(*op.inputs[0], ambient);
      case OpKind::kDdo:
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        return CheckItem(*op.inputs[0], ambient);
      case OpKind::kMapToItem: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        FieldSet fields;
        XQTP_RETURN_NOT_OK(CheckTuple(*op.inputs[0], ambient, &fields));
        // Per-tuple dependents see that tuple only.
        return CheckItem(*op.dep, &fields);
      }
      case OpKind::kFnCall: {
        int arity = core::CoreFnArity(op.fn);
        int have = static_cast<int>(op.inputs.size());
        if ((arity >= 0 && have != arity) || (arity < 0 && have < 2)) {
          return Violation(
              "fn-arity", std::string(core::CoreFnName(op.fn)) + " expects " +
                              (arity >= 0 ? std::to_string(arity)
                                          : std::string("at least 2")) +
                              " arguments, has " + std::to_string(have));
        }
        for (const OpPtr& in : op.inputs) {
          XQTP_RETURN_NOT_OK(CheckItem(*in, ambient));
        }
        return Status::OK();
      }
      case OpKind::kCompare:
      case OpKind::kArith:
      case OpKind::kAnd:
      case OpKind::kOr:
        XQTP_RETURN_NOT_OK(CheckArity(op, 2));
        for (const OpPtr& in : op.inputs) {
          XQTP_RETURN_NOT_OK(CheckItem(*in, ambient));
        }
        return Status::OK();
      case OpKind::kSequence:
        for (const OpPtr& in : op.inputs) {
          XQTP_RETURN_NOT_OK(CheckItem(*in, ambient));
        }
        return Status::OK();
      case OpKind::kIf:
        XQTP_RETURN_NOT_OK(CheckArity(op, 3));
        for (const OpPtr& in : op.inputs) {
          XQTP_RETURN_NOT_OK(CheckItem(*in, ambient));
        }
        return Status::OK();
      case OpKind::kForEach: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        XQTP_RETURN_NOT_OK(CheckItem(*op.inputs[0], ambient));
        if (op.var == core::kNoVar) {
          return Violation("scoped-var-scope",
                           "ForEach carries no loop variable");
        }
        if (op.pos_var == op.var) {
          return Violation("scoped-var-scope",
                           "ForEach binds the same variable as both item "
                           "and position");
        }
        scoped_.insert(op.var);
        if (op.pos_var != core::kNoVar) scoped_.insert(op.pos_var);
        Status st = op.dep2 != nullptr ? CheckItem(*op.dep2, ambient)
                                       : Status::OK();
        if (st.ok()) st = CheckItem(*op.dep, ambient);
        scoped_.erase(op.var);
        if (op.pos_var != core::kNoVar) scoped_.erase(op.pos_var);
        return st;
      }
      case OpKind::kLetIn: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        XQTP_RETURN_NOT_OK(CheckItem(*op.inputs[0], ambient));
        if (op.var == core::kNoVar) {
          return Violation("scoped-var-scope",
                           "LetIn carries no variable");
        }
        scoped_.insert(op.var);
        Status st = CheckItem(*op.dep, ambient);
        scoped_.erase(op.var);
        return st;
      }
      case OpKind::kTypeswitch: {
        XQTP_RETURN_NOT_OK(CheckArity(op, 1));
        XQTP_RETURN_NOT_OK(CheckItem(*op.inputs[0], ambient));
        if (op.var == core::kNoVar || op.pos_var == core::kNoVar) {
          return Violation("scoped-var-scope",
                           "Typeswitch requires both a case and a default "
                           "binder");
        }
        scoped_.insert(op.var);
        Status st = CheckItem(*op.dep, ambient);
        scoped_.erase(op.var);
        if (st.ok()) {
          scoped_.insert(op.pos_var);
          st = CheckItem(*op.dep2, ambient);
          scoped_.erase(op.pos_var);
        }
        return st;
      }
      case OpKind::kScopedVar:
        XQTP_RETURN_NOT_OK(CheckArity(op, 0));
        if (scoped_.count(op.var) == 0) {
          return Violation("scoped-var-scope",
                           "ScopedVar " + VarName(op.var) +
                               " references no enclosing ForEach/LetIn/"
                               "Typeswitch binder");
        }
        return Status::OK();
      case OpKind::kMapFromItem:
      case OpKind::kSelect:
      case OpKind::kTupleTreePattern:
      case OpKind::kInputTuple:
        break;  // unreachable: rejected by the IsTuplePlan guard above
    }
    return Violation("plan-sort", "unknown operator kind");
  }

  const PlanVerifyOptions& opts_;
  std::unordered_set<VarId> scoped_;
};

}  // namespace

Status VerifyPlan(const algebra::Op& plan, const PlanVerifyOptions& opts) {
  PlanVerifier verifier(opts);
  Status st = verifier.Run(plan);
  if (st.ok()) VerifyScope::ClearFiredTrail();
  return st;
}

}  // namespace xqtp::analysis
