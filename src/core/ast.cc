#include "core/ast.h"

#include <unordered_map>

namespace xqtp::core {

VarId VarTable::Fresh(std::string name) {
  VarId v = static_cast<VarId>(names_.size());
  names_.push_back(std::move(name));
  is_global_.push_back(false);
  global_types_.push_back(AbstractType::kUnknown);
  return v;
}

VarId VarTable::Global(const std::string& name, AbstractType type) {
  VarId existing = FindGlobal(name);
  if (existing != kNoVar) return existing;
  VarId v = static_cast<VarId>(names_.size());
  names_.push_back(name);
  is_global_.push_back(true);
  global_types_.push_back(type);
  globals_.push_back(v);
  return v;
}

VarId VarTable::FindGlobal(const std::string& name) const {
  for (VarId v : globals_) {
    if (names_[v] == name) return v;
  }
  return kNoVar;
}

const char* CoreFnName(CoreFn fn) {
  switch (fn) {
    case CoreFn::kBoolean:
      return "fn:boolean";
    case CoreFn::kCount:
      return "fn:count";
    case CoreFn::kNot:
      return "fn:not";
    case CoreFn::kEmpty:
      return "fn:empty";
    case CoreFn::kExists:
      return "fn:exists";
    case CoreFn::kRoot:
      return "fn:root";
    case CoreFn::kData:
      return "fn:data";
    case CoreFn::kString:
      return "fn:string";
    case CoreFn::kNumber:
      return "fn:number";
    case CoreFn::kStringLength:
      return "fn:string-length";
    case CoreFn::kConcat:
      return "fn:concat";
    case CoreFn::kContains:
      return "fn:contains";
    case CoreFn::kStartsWith:
      return "fn:starts-with";
    case CoreFn::kSum:
      return "fn:sum";
  }
  return "?";
}

int CoreFnArity(CoreFn fn) {
  switch (fn) {
    case CoreFn::kContains:
    case CoreFn::kStartsWith:
      return 2;
    case CoreFn::kConcat:
      return -1;
    default:
      return 1;
  }
}

CoreExprPtr MakeVar(VarId v) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kVar);
  e->var = v;
  return e;
}

CoreExprPtr MakeLiteral(xdm::Item item) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kLiteral);
  e->literal = std::move(item);
  return e;
}

CoreExprPtr MakeEmpty() {
  return std::make_unique<CoreExpr>(CoreKind::kSequence);
}

CoreExprPtr MakeSequence(std::vector<CoreExprPtr> items) {
  if (items.size() == 1) return std::move(items[0]);
  auto e = std::make_unique<CoreExpr>(CoreKind::kSequence);
  e->children = std::move(items);
  return e;
}

CoreExprPtr MakeLet(VarId v, CoreExprPtr binding, CoreExprPtr body) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kLet);
  e->var = v;
  e->children.push_back(std::move(binding));
  e->children.push_back(std::move(body));
  return e;
}

CoreExprPtr MakeFor(VarId v, VarId pos, CoreExprPtr seq, CoreExprPtr where,
                    CoreExprPtr body) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kFor);
  e->var = v;
  e->pos_var = pos;
  e->children.push_back(std::move(seq));
  e->children.push_back(std::move(body));
  e->where = std::move(where);
  return e;
}

CoreExprPtr MakeIf(CoreExprPtr cond, CoreExprPtr then_e, CoreExprPtr else_e) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kIf);
  e->children.push_back(std::move(cond));
  e->children.push_back(std::move(then_e));
  e->children.push_back(std::move(else_e));
  return e;
}

CoreExprPtr MakeStep(VarId ctx, Axis axis, NodeTest test) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kStep);
  e->var = ctx;
  e->axis = axis;
  e->test = test;
  return e;
}

CoreExprPtr MakeDdo(CoreExprPtr arg) {
  if (arg->kind == CoreKind::kDdo) return arg;
  auto e = std::make_unique<CoreExpr>(CoreKind::kDdo);
  e->children.push_back(std::move(arg));
  return e;
}

CoreExprPtr MakeFnCall(CoreFn fn, std::vector<CoreExprPtr> args) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kFnCall);
  e->fn = fn;
  e->children = std::move(args);
  return e;
}

CoreExprPtr MakeTypeswitch(CoreExprPtr input, VarId case_var,
                           CoreExprPtr case_body, VarId default_var,
                           CoreExprPtr default_body) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kTypeswitch);
  e->case_var = case_var;
  e->default_var = default_var;
  e->children.push_back(std::move(input));
  e->children.push_back(std::move(case_body));
  e->children.push_back(std::move(default_body));
  return e;
}

CoreExprPtr MakeCompare(xdm::CompareOp op, CoreExprPtr lhs, CoreExprPtr rhs) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kCompare);
  e->cmp_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

CoreExprPtr MakeArith(xdm::ArithOp op, CoreExprPtr lhs, CoreExprPtr rhs) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kArith);
  e->arith_op = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

CoreExprPtr MakeAnd(CoreExprPtr lhs, CoreExprPtr rhs) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kAnd);
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

CoreExprPtr MakeOr(CoreExprPtr lhs, CoreExprPtr rhs) {
  auto e = std::make_unique<CoreExpr>(CoreKind::kOr);
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

CoreExprPtr Clone(const CoreExpr& e) {
  auto c = std::make_unique<CoreExpr>(e.kind);
  c->var = e.var;
  c->pos_var = e.pos_var;
  c->case_var = e.case_var;
  c->default_var = e.default_var;
  c->literal = e.literal;
  c->axis = e.axis;
  c->test = e.test;
  c->fn = e.fn;
  c->cmp_op = e.cmp_op;
  c->arith_op = e.arith_op;
  c->children.reserve(e.children.size());
  for (const CoreExprPtr& ch : e.children) c->children.push_back(Clone(*ch));
  if (e.where) c->where = Clone(*e.where);
  return c;
}

int CountUses(const CoreExpr& e, VarId v) {
  int n = 0;
  if (e.kind == CoreKind::kVar && e.var == v) ++n;
  if (e.kind == CoreKind::kStep && e.var == v) ++n;
  for (const CoreExprPtr& ch : e.children) n += CountUses(*ch, v);
  if (e.where) n += CountUses(*e.where, v);
  return n;
}

void Substitute(CoreExpr* e, VarId v, const CoreExpr& replacement) {
  if (e->kind == CoreKind::kVar && e->var == v) {
    *e = std::move(*Clone(replacement));
    return;
  }
  // A step whose context variable is v: substitution is only defined when
  // the replacement is itself a variable (rebinding the context); the
  // rewriter guarantees this by only inlining variables into step contexts.
  if (e->kind == CoreKind::kStep && e->var == v) {
    if (replacement.kind == CoreKind::kVar) {
      e->var = replacement.var;
    }
    // Otherwise leave untouched; caller checks StepContextsSubstitutable.
  }
  for (CoreExprPtr& ch : e->children) Substitute(ch.get(), v, replacement);
  if (e->where) Substitute(e->where.get(), v, replacement);
}

namespace {

bool AlphaEqualImpl(const CoreExpr& a, const CoreExpr& b,
                    std::unordered_map<VarId, VarId>* map) {
  if (a.kind != b.kind) return false;
  auto vars_equal = [&](VarId va, VarId vb) {
    if (va == kNoVar || vb == kNoVar) return va == vb;
    auto it = map->find(va);
    if (it != map->end()) return it->second == vb;
    return va == vb;
  };
  auto bind = [&](VarId va, VarId vb) {
    if (va != kNoVar) (*map)[va] = vb;
  };
  switch (a.kind) {
    case CoreKind::kVar:
    case CoreKind::kStep:
      if (!vars_equal(a.var, b.var)) return false;
      if (a.kind == CoreKind::kStep &&
          (a.axis != b.axis || !(a.test == b.test))) {
        return false;
      }
      break;
    case CoreKind::kLiteral:
      if (!(a.literal == b.literal)) return false;
      break;
    case CoreKind::kLet:
      bind(a.var, b.var);
      break;
    case CoreKind::kFor:
      bind(a.var, b.var);
      bind(a.pos_var, b.pos_var);
      if ((a.pos_var == kNoVar) != (b.pos_var == kNoVar)) return false;
      if ((a.where == nullptr) != (b.where == nullptr)) return false;
      break;
    case CoreKind::kTypeswitch:
      bind(a.case_var, b.case_var);
      bind(a.default_var, b.default_var);
      break;
    case CoreKind::kFnCall:
      if (a.fn != b.fn) return false;
      break;
    case CoreKind::kCompare:
      if (a.cmp_op != b.cmp_op) return false;
      break;
    case CoreKind::kArith:
      if (a.arith_op != b.arith_op) return false;
      break;
    default:
      break;
  }
  if (a.children.size() != b.children.size()) return false;
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!AlphaEqualImpl(*a.children[i], *b.children[i], map)) return false;
  }
  if (a.where && !AlphaEqualImpl(*a.where, *b.where, map)) return false;
  return true;
}

}  // namespace

bool AlphaEqual(const CoreExpr& a, const CoreExpr& b) {
  std::unordered_map<VarId, VarId> map;
  return AlphaEqualImpl(a, b, &map);
}

}  // namespace xqtp::core
