#include "core/odf.h"

namespace xqtp::core {

namespace {

/// Classification of a for-body as a "downward chain" from the loop
/// variable, used to propagate order properties through iteration over a
/// many-node sequence.
enum class ChainKind : uint8_t {
  kNotChain,   ///< not a downward chain; no guarantees
  kIdentity,   ///< the loop variable itself (a pure filter)
  kUnrelated,  ///< chain of child/attribute/self steps: output unrelated
  kRelated,    ///< ends in a descendant step: output may be related
};

ChainKind Compose(ChainKind outer, ChainKind inner) {
  if (outer == ChainKind::kNotChain || inner == ChainKind::kNotChain) {
    return ChainKind::kNotChain;
  }
  if (inner == ChainKind::kIdentity) return outer;
  if (outer == ChainKind::kIdentity) return inner;
  if (outer == ChainKind::kUnrelated) return inner;
  // outer kRelated composed with a real step: children/descendants of
  // related nodes interleave — no order guarantee (query Q5).
  return ChainKind::kNotChain;
}

/// Is `e` a downward chain rooted at variable `x`?
ChainKind ClassifyChain(const CoreExpr& e, VarId x) {
  switch (e.kind) {
    case CoreKind::kVar:
      return e.var == x ? ChainKind::kIdentity : ChainKind::kNotChain;
    case CoreKind::kStep:
      if (e.var != x) return ChainKind::kNotChain;
      switch (e.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
        case Axis::kSelf:
          return ChainKind::kUnrelated;
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          return ChainKind::kRelated;
        case Axis::kParent:
        case Axis::kAncestor:
        case Axis::kAncestorOrSelf:
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling:
          return ChainKind::kNotChain;
      }
      return ChainKind::kNotChain;
    case CoreKind::kDdo:
      // ddo over a chain is the chain itself (already ordered/df) —
      // classification passes through.
      return ClassifyChain(*e.children[0], x);
    case CoreKind::kFor: {
      // A positional loop is observationally different; a where clause is
      // just a filter and preserves every chain property.
      if (e.pos_var != kNoVar) return ChainKind::kNotChain;
      ChainKind outer = ClassifyChain(*e.children[0], x);
      ChainKind inner = ClassifyChain(*e.children[1], e.var);
      return Compose(outer, inner);
    }
    default:
      return ChainKind::kNotChain;
  }
}

OdfProps Compute(const CoreExpr& e, const VarTable& vars, OdfEnv* env) {
  switch (e.kind) {
    case CoreKind::kVar: {
      auto it = env->find(e.var);
      if (it != env->end()) return it->second;
      // Globals are bound to singleton document nodes by contract.
      if (vars.IsGlobal(e.var)) return OdfProps::Singleton();
      return OdfProps::Unknown();
    }
    case CoreKind::kLiteral:
      return OdfProps::Singleton();
    case CoreKind::kSequence: {
      if (e.children.empty()) return {true, true, true, Card::kZeroOrOne};
      if (e.children.size() == 1) return Compute(*e.children[0], vars, env);
      for (const CoreExprPtr& c : e.children) Compute(*c, vars, env);
      return OdfProps::Unknown();
    }
    case CoreKind::kLet: {
      OdfProps bp = Compute(*e.children[0], vars, env);
      (*env)[e.var] = bp;
      return Compute(*e.children[1], vars, env);
    }
    case CoreKind::kFor: {
      OdfProps sp = Compute(*e.children[0], vars, env);
      // The loop variable is a single item from the sequence.
      (*env)[e.var] = OdfProps::Singleton();
      if (e.pos_var != kNoVar) (*env)[e.pos_var] = OdfProps::Singleton();
      if (e.where) Compute(*e.where, vars, env);
      OdfProps bp = Compute(*e.children[1], vars, env);
      // Pure filter: a subsequence keeps order, distinctness and
      // unrelatedness.
      if (e.children[1]->kind == CoreKind::kVar &&
          e.children[1]->var == e.var) {
        OdfProps out = sp;
        if (out.card == Card::kOne) out.card = Card::kZeroOrOne;
        return out;
      }
      switch (sp.card) {
        case Card::kOne:
          return bp;
        case Card::kZeroOrOne: {
          OdfProps out = bp;
          if (out.card == Card::kOne) out.card = Card::kZeroOrOne;
          return out;
        }
        case Card::kMany: {
          // Iteration over many nodes: per-binding results of a downward
          // chain live in disjoint subtrees when the iterator is
          // *unrelated*, so the concatenation stays ordered and
          // duplicate-free (Hidders et al. [19]).
          if (sp.OrderedDupFree() && sp.unrelated && e.pos_var == kNoVar) {
            ChainKind kind = ClassifyChain(*e.children[1], e.var);
            switch (kind) {
              case ChainKind::kIdentity:
                return sp;  // handled above, but keep for where-filters
              case ChainKind::kUnrelated:
                return {true, true, true, Card::kMany};
              case ChainKind::kRelated:
                return {true, true, false, Card::kMany};
              case ChainKind::kNotChain:
                break;
            }
          }
          return OdfProps::Unknown();
        }
      }
      return OdfProps::Unknown();
    }
    case CoreKind::kIf: {
      Compute(*e.children[0], vars, env);
      OdfProps a = Compute(*e.children[1], vars, env);
      OdfProps b = Compute(*e.children[2], vars, env);
      OdfProps out;
      out.ordered = a.ordered && b.ordered;
      out.dup_free = a.dup_free && b.dup_free;
      out.unrelated = a.unrelated && b.unrelated;
      out.card = Card::kMany;
      if (a.card != Card::kMany && b.card != Card::kMany) {
        out.card = (a.card == Card::kOne && b.card == Card::kOne)
                       ? Card::kOne
                       : Card::kZeroOrOne;
      }
      return out;
    }
    case CoreKind::kStep: {
      auto it = env->find(e.var);
      OdfProps ctx = it != env->end()
                         ? it->second
                         : (vars.IsGlobal(e.var) ? OdfProps::Singleton()
                                                 : OdfProps::Unknown());
      // A single axis step from a *single* context node always yields a
      // document-ordered duplicate-free sequence; only the vertical axes
      // keep the result unrelated.
      if (ctx.card != Card::kMany) {
        OdfProps out{true, true, true, Card::kMany};
        switch (e.axis) {
          case Axis::kChild:
          case Axis::kAttribute:
          case Axis::kFollowingSibling:
          case Axis::kPrecedingSibling:
            break;  // siblings/children of one node are unrelated
          case Axis::kDescendant:
          case Axis::kDescendantOrSelf:
          case Axis::kAncestor:
          case Axis::kAncestorOrSelf:
            out.unrelated = false;  // vertically related nodes
            break;
          case Axis::kSelf:
          case Axis::kParent:
            out.card = Card::kZeroOrOne;
            break;
        }
        return out;
      }
      return OdfProps::Unknown();
    }
    case CoreKind::kDdo: {
      OdfProps in = Compute(*e.children[0], vars, env);
      return {true, true, in.unrelated, in.card};
    }
    case CoreKind::kFnCall:
      for (const CoreExprPtr& c : e.children) Compute(*c, vars, env);
      switch (e.fn) {
        case CoreFn::kBoolean:
        case CoreFn::kCount:
        case CoreFn::kNot:
        case CoreFn::kEmpty:
        case CoreFn::kExists:
        case CoreFn::kData:
        case CoreFn::kString:
        case CoreFn::kNumber:
        case CoreFn::kStringLength:
        case CoreFn::kConcat:
        case CoreFn::kContains:
        case CoreFn::kStartsWith:
        case CoreFn::kSum:
          return OdfProps::Singleton();
        case CoreFn::kRoot:
          return {true, true, true, Card::kZeroOrOne};
      }
      return OdfProps::Unknown();
    case CoreKind::kTypeswitch: {
      OdfProps it = Compute(*e.children[0], vars, env);
      (*env)[e.case_var] = it;
      (*env)[e.default_var] = it;
      OdfProps a = Compute(*e.children[1], vars, env);
      OdfProps b = Compute(*e.children[2], vars, env);
      return {a.ordered && b.ordered, a.dup_free && b.dup_free,
              a.unrelated && b.unrelated, Card::kMany};
    }
    case CoreKind::kCompare:
    case CoreKind::kAnd:
    case CoreKind::kOr:
      for (const CoreExprPtr& c : e.children) Compute(*c, vars, env);
      return OdfProps::Singleton();
    case CoreKind::kArith: {
      for (const CoreExprPtr& c : e.children) Compute(*c, vars, env);
      // Arithmetic yields at most one item (empty if an operand is empty).
      return {true, true, true, Card::kZeroOrOne};
    }
  }
  return OdfProps::Unknown();
}

}  // namespace

OdfProps ComputeOdf(const CoreExpr& e, const VarTable& vars,
                    const OdfEnv& env) {
  OdfEnv scratch = env;
  return Compute(e, vars, &scratch);
}

}  // namespace xqtp::core
