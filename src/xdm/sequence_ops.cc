#include "xdm/sequence_ops.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/exec_stats.h"
#include "xml/document.h"

namespace xqtp::xdm {

Result<Sequence> DistinctDocOrder(Sequence seq) {
  // Proven-distinct input (single-output patterns and staircase steps emit
  // document-ordered duplicate-free sequences by construction): skip the
  // re-sort. Mixed node/atomic sequences fail the check, so the type-error
  // path below is preserved.
  if (IsDistinctDocOrdered(seq)) return seq;
  bool all_nodes = true;
  bool any_nodes = false;
  for (const Item& it : seq) {
    if (it.IsNode()) {
      any_nodes = true;
    } else {
      all_nodes = false;
    }
  }
  if (!all_nodes) {
    // XQuery path semantics: a result of only atomic values is returned
    // as-is (no document order to establish); mixing nodes and atomics
    // is a type error.
    if (!any_nodes) return seq;
    return Status::TypeError(
        "fs:distinct-doc-order applied to a sequence mixing nodes and "
        "atomic values");
  }
  std::sort(seq.begin(), seq.end(), [](const Item& a, const Item& b) {
    return xml::DocOrderLess(a.node(), b.node());
  });
  seq.erase(std::unique(seq.begin(), seq.end(),
                        [](const Item& a, const Item& b) {
                          return a.node() == b.node();
                        }),
            seq.end());
  return seq;
}

bool IsDistinctDocOrdered(const Sequence& seq) {
  for (size_t i = 0; i + 1 < seq.size(); ++i) {
    if (!seq[i].IsNode() || !seq[i + 1].IsNode()) return false;
    if (!xml::DocOrderLess(seq[i].node(), seq[i + 1].node())) return false;
  }
  return true;
}

Result<bool> EffectiveBooleanValue(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq[0].IsNode()) return true;
  if (seq.size() > 1) {
    return Status::TypeError(
        "effective boolean value of a multi-item atomic sequence");
  }
  const Item& it = seq[0];
  if (it.IsBoolean()) return it.boolean();
  if (it.IsInteger()) return it.integer() != 0;
  if (it.IsDouble()) return it.dbl() != 0.0 && !(it.dbl() != it.dbl());
  return !it.str().empty();
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

bool CompareDoubles(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

bool CompareStrings(CompareOp op, const std::string& a, const std::string& b) {
  int c = a.compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

/// One atomized pair comparison. Untyped (node-derived) values follow the
/// other operand: numeric if it is numeric, string otherwise.
bool ComparePair(CompareOp op, const Item& a, const Item& b) {
  bool a_num = a.IsNumeric();
  bool b_num = b.IsNumeric();
  bool a_untyped = a.IsNode();
  bool b_untyped = b.IsNode();
  if (a_num || b_num) {
    double da = a_num ? a.AsDouble()
                      : std::strtod(a.StringValue().c_str(), nullptr);
    double db = b_num ? b.AsDouble()
                      : std::strtod(b.StringValue().c_str(), nullptr);
    // A non-numeric string coerced against a number yields 0 via strtod;
    // good enough for the untyped-data fragment we support.
    (void)a_untyped;
    (void)b_untyped;
    return CompareDoubles(op, da, db);
  }
  if (a.IsBoolean() || b.IsBoolean()) {
    bool ba = a.IsBoolean() ? a.boolean() : !a.StringValue().empty();
    bool bb = b.IsBoolean() ? b.boolean() : !b.StringValue().empty();
    return CompareDoubles(op, ba ? 1.0 : 0.0, bb ? 1.0 : 0.0);
  }
  return CompareStrings(op, a.StringValue(), b.StringValue());
}

}  // namespace

Result<bool> GeneralCompare(CompareOp op, const Sequence& lhs,
                            const Sequence& rhs) {
  for (const Item& a : lhs) {
    for (const Item& b : rhs) {
      if (ComparePair(op, a, b)) return true;
    }
  }
  return false;
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "div";
    case ArithOp::kIDiv:
      return "idiv";
    case ArithOp::kMod:
      return "mod";
  }
  return "?";
}

double NumericValue(const Item& item) {
  if (item.IsNumeric()) return item.AsDouble();
  if (item.IsBoolean()) return item.boolean() ? 1.0 : 0.0;
  const std::string s = item.StringValue();
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  // Trailing junk (or an empty string) is not a number.
  while (end != nullptr && *end != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*end))) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    ++end;
  }
  if (end == s.c_str()) return std::numeric_limits<double>::quiet_NaN();
  return v;
}

Result<Sequence> EvalArith(ArithOp op, const Sequence& lhs,
                           const Sequence& rhs) {
  if (lhs.empty() || rhs.empty()) return Sequence{};
  if (lhs.size() > 1 || rhs.size() > 1) {
    return Status::TypeError("arithmetic on a multi-item sequence");
  }
  double a = NumericValue(lhs[0]);
  double b = NumericValue(rhs[0]);
  bool integral = lhs[0].IsInteger() && rhs[0].IsInteger();
  switch (op) {
    case ArithOp::kAdd:
      return integral ? Sequence{Item(lhs[0].integer() + rhs[0].integer())}
                      : Sequence{Item(a + b)};
    case ArithOp::kSub:
      return integral ? Sequence{Item(lhs[0].integer() - rhs[0].integer())}
                      : Sequence{Item(a - b)};
    case ArithOp::kMul:
      return integral ? Sequence{Item(lhs[0].integer() * rhs[0].integer())}
                      : Sequence{Item(a * b)};
    case ArithOp::kDiv:
      if (b == 0) return Status::TypeError("division by zero");
      return Sequence{Item(a / b)};
    case ArithOp::kIDiv:
      if (b == 0) return Status::TypeError("integer division by zero");
      return Sequence{Item(static_cast<int64_t>(a / b))};
    case ArithOp::kMod: {
      if (b == 0) return Status::TypeError("modulus by zero");
      if (integral) {
        return Sequence{Item(lhs[0].integer() % rhs[0].integer())};
      }
      return Sequence{Item(std::fmod(a, b))};
    }
  }
  return Status::Internal("unreachable arithmetic operator");
}

Result<std::string> StringArg(const Sequence& seq) {
  if (seq.empty()) return std::string();
  if (seq.size() > 1) {
    return Status::TypeError("expected an at-most-one-item sequence");
  }
  return seq[0].StringValue();
}

bool MatchesTest(const xml::Node* node, Axis axis, const NodeTest& test) {
  bool principal_attr = axis == Axis::kAttribute;
  switch (test.kind) {
    case NodeTestKind::kAnyNode:
      return true;
    case NodeTestKind::kText:
      return node->IsText();
    case NodeTestKind::kAnyName:
      return principal_attr ? node->IsAttribute() : node->IsElement();
    case NodeTestKind::kName:
      if (principal_attr) {
        return node->IsAttribute() && node->name == test.name;
      }
      return node->IsElement() && node->name == test.name;
  }
  return false;
}

namespace {

void CollectDescendants(const xml::Node* n, Axis axis, const NodeTest& test,
                        Sequence* out) {
  for (const xml::Node* c = n->first_child; c != nullptr;
       c = c->next_sibling) {
    CountNodesVisited(1);
    if (MatchesTest(c, axis, test)) out->push_back(Item(c));
    CollectDescendants(c, axis, test, out);
  }
}

}  // namespace

void EvalAxisStep(const xml::Node* context, Axis axis, const NodeTest& test,
                  Sequence* out) {
  switch (axis) {
    case Axis::kChild:
      for (const xml::Node* c = context->first_child; c != nullptr;
           c = c->next_sibling) {
        CountNodesVisited(1);
        if (MatchesTest(c, axis, test)) out->push_back(Item(c));
      }
      break;
    case Axis::kDescendant:
      CollectDescendants(context, axis, test, out);
      break;
    case Axis::kDescendantOrSelf:
      if (MatchesTest(context, axis, test)) out->push_back(Item(context));
      CollectDescendants(context, axis, test, out);
      break;
    case Axis::kAttribute:
      for (const xml::Node* a : context->Attributes()) {
        if (MatchesTest(a, axis, test)) out->push_back(Item(a));
      }
      break;
    case Axis::kSelf:
      if (MatchesTest(context, axis, test)) out->push_back(Item(context));
      break;
    case Axis::kParent:
      if (context->parent != nullptr &&
          MatchesTest(context->parent, axis, test)) {
        out->push_back(Item(context->parent));
      }
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf: {
      // Emit in document order (outermost ancestor first).
      std::vector<const xml::Node*> chain;
      const xml::Node* n =
          axis == Axis::kAncestorOrSelf ? context : context->parent;
      for (; n != nullptr; n = n->parent) {
        if (MatchesTest(n, axis, test)) chain.push_back(n);
      }
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        out->push_back(Item(*it));
      }
      break;
    }
    case Axis::kFollowingSibling:
      for (const xml::Node* s = context->next_sibling; s != nullptr;
           s = s->next_sibling) {
        if (MatchesTest(s, axis, test)) out->push_back(Item(s));
      }
      break;
    case Axis::kPrecedingSibling:
      // Walk from the first sibling up to the context, in document order.
      // Attributes and the document node have no siblings.
      if (context->IsAttribute() || context->parent == nullptr) break;
      for (const xml::Node* s = context->parent->first_child; s != context;
           s = s->next_sibling) {
        if (MatchesTest(s, axis, test)) out->push_back(Item(s));
      }
      break;
  }
}

}  // namespace xqtp::xdm

namespace xqtp {

bool AxisAllowedInPattern(Axis axis) {
  switch (axis) {
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kAttribute:
    case Axis::kSelf:
      return true;
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      return false;
  }
  return false;
}

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kSelf:
      return "self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
  }
  return "?";
}

std::string NodeTest::ToString(const StringInterner& interner) const {
  switch (kind) {
    case NodeTestKind::kName:
      return interner.NameOf(name);
    case NodeTestKind::kAnyName:
      return "*";
    case NodeTestKind::kAnyNode:
      return "node()";
    case NodeTestKind::kText:
      return "text()";
  }
  return "?";
}

std::string StepToString(Axis axis, const NodeTest& test,
                         const StringInterner& interner) {
  return std::string(AxisName(axis)) + "::" + test.ToString(interner);
}

}  // namespace xqtp
