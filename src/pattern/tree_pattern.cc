#include "pattern/tree_pattern.h"

#include <algorithm>

namespace xqtp::pattern {

namespace {

PatternNodePtr CloneNode(const PatternNode& n) {
  auto c = std::make_unique<PatternNode>();
  c->axis = n.axis;
  c->test = n.test;
  c->position = n.position;
  for (const PatternNodePtr& p : n.predicates) {
    c->predicates.push_back(CloneNode(*p));
  }
  if (n.next) c->next = CloneNode(*n.next);
  return c;
}

int CountSteps(const PatternNode& n) {
  int c = 1;
  for (const PatternNodePtr& p : n.predicates) c += CountSteps(*p);
  if (n.next) c += CountSteps(*n.next);
  return c;
}

int Branching(const PatternNode& n) {
  int b = static_cast<int>(n.predicates.size());
  for (const PatternNodePtr& p : n.predicates) b = std::max(b, Branching(*p));
  if (n.next) b = std::max(b, Branching(*n.next));
  return b;
}

/// Prints the sub-pattern rooted at `n`; `output` annotates the last step
/// of its main path (kInvalidSymbol inside predicate branches).
void PrintNode(const PatternNode& n, Symbol output, const StringInterner& in,
               std::string* out) {
  *out += StepToString(n.axis, n.test, in);
  if (n.position > 0) {
    *out += '[';
    *out += std::to_string(n.position);
    *out += ']';
  }
  if (n.next == nullptr && output != kInvalidSymbol) {
    *out += '{';
    *out += in.NameOf(output);
    *out += '}';
  }
  for (const PatternNodePtr& p : n.predicates) {
    *out += '[';
    PrintNode(*p, kInvalidSymbol, in, out);
    *out += ']';
  }
  if (n.next) {
    *out += '/';
    PrintNode(*n.next, output, in, out);
  }
}

}  // namespace

TreePattern TreePattern::Clone() const {
  TreePattern c;
  c.input_field = input_field;
  c.output = output;
  if (root) c.root = CloneNode(*root);
  return c;
}

PatternNode* TreePattern::ExtractionPoint() {
  PatternNode* n = root.get();
  if (n == nullptr) return nullptr;
  while (n->next) n = n->next.get();
  return n;
}

const PatternNode* TreePattern::ExtractionPoint() const {
  return const_cast<TreePattern*>(this)->ExtractionPoint();
}

int TreePattern::StepCount() const { return root ? CountSteps(*root) : 0; }

namespace {

bool AxesOk(const PatternNode& n) {
  if (!AxisAllowedInPattern(n.axis)) return false;
  for (const PatternNodePtr& p : n.predicates) {
    if (!AxesOk(*p)) return false;
  }
  return n.next == nullptr || AxesOk(*n.next);
}

}  // namespace

bool TreePattern::UsesOnlyPatternAxes() const {
  return root == nullptr || AxesOk(*root);
}

namespace {

bool AnyPositional(const PatternNode& n) {
  if (n.position > 0) return true;
  for (const PatternNodePtr& p : n.predicates) {
    if (AnyPositional(*p)) return true;
  }
  return n.next != nullptr && AnyPositional(*n.next);
}

}  // namespace

bool TreePattern::HasPositionalSteps() const {
  return root != nullptr && AnyPositional(*root);
}

int TreePattern::MaxBranching() const { return root ? Branching(*root) : 0; }

std::string TreePattern::ToString(const StringInterner& interner) const {
  std::string out = "IN#";
  out += interner.NameOf(input_field);
  if (root) {
    out += '/';
    PrintNode(*root, output, interner, &out);
  }
  return out;
}

bool Equal(const PatternNode& a, const PatternNode& b) {
  if (a.axis != b.axis || !(a.test == b.test) || a.position != b.position) {
    return false;
  }
  if (a.predicates.size() != b.predicates.size()) return false;
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    if (!Equal(*a.predicates[i], *b.predicates[i])) return false;
  }
  if ((a.next == nullptr) != (b.next == nullptr)) return false;
  if (a.next && !Equal(*a.next, *b.next)) return false;
  return true;
}

bool Equal(const TreePattern& a, const TreePattern& b) {
  if (a.input_field != b.input_field || a.output != b.output) return false;
  if ((a.root == nullptr) != (b.root == nullptr)) return false;
  return a.root == nullptr || Equal(*a.root, *b.root);
}

TreePattern MakeSingleStep(Symbol input_field, Axis axis, const NodeTest& test,
                           Symbol output) {
  TreePattern tp;
  tp.input_field = input_field;
  tp.output = output;
  tp.root = std::make_unique<PatternNode>();
  tp.root->axis = axis;
  tp.root->test = test;
  return tp;
}

void AppendPath(TreePattern* tp, TreePattern suffix) {
  PatternNode* ep = tp->ExtractionPoint();
  if (ep == nullptr || suffix.root == nullptr) return;
  ep->next = std::move(suffix.root);
  tp->output = suffix.output;  // the intermediate binding is dropped
}

void AttachPredicate(TreePattern* tp, TreePattern pred) {
  PatternNode* ep = tp->ExtractionPoint();
  if (ep == nullptr || pred.root == nullptr) return;
  ep->predicates.push_back(std::move(pred.root));
}

}  // namespace xqtp::pattern
