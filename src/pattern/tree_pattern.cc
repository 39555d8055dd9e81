#include "pattern/tree_pattern.h"

#include <algorithm>

namespace xqtp::pattern {

namespace {

PatternNodePtr CloneNode(const PatternNode& n) {
  auto c = std::make_unique<PatternNode>();
  c->axis = n.axis;
  c->test = n.test;
  c->output = n.output;
  c->position = n.position;
  for (const PatternNodePtr& p : n.predicates) {
    c->predicates.push_back(CloneNode(*p));
  }
  if (n.next) c->next = CloneNode(*n.next);
  return c;
}

void CollectOutputs(const PatternNode& n, std::vector<Symbol>* out) {
  if (n.output != kInvalidSymbol) out->push_back(n.output);
  for (const PatternNodePtr& p : n.predicates) CollectOutputs(*p, out);
  if (n.next) CollectOutputs(*n.next, out);
}

bool RenameIn(PatternNode* n, Symbol from, Symbol to) {
  if (n->output == from) {
    n->output = to;
    return true;
  }
  for (PatternNodePtr& p : n->predicates) {
    if (RenameIn(p.get(), from, to)) return true;
  }
  if (n->next) return RenameIn(n->next.get(), from, to);
  return false;
}

int CountOutputs(const PatternNode& n) {
  int c = n.output != kInvalidSymbol ? 1 : 0;
  for (const PatternNodePtr& p : n.predicates) c += CountOutputs(*p);
  if (n.next) c += CountOutputs(*n.next);
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

void PrintNode(const PatternNode& n, const StringInterner& in,
               std::string* out) {
  *out += StepToString(n.axis, n.test, in);
  if (n.position > 0) {
    *out += '[';
    *out += std::to_string(n.position);
    *out += ']';
  }
  if (n.output != kInvalidSymbol) {
    *out += '{';
    *out += in.NameOf(n.output);
    *out += '}';
  }
  for (const PatternNodePtr& p : n.predicates) {
    *out += '[';
    PrintNode(*p, in, out);
    *out += ']';
  }
  if (n.next) {
    *out += '/';
    PrintNode(*n.next, in, out);
  }
}

}  // namespace

TreePattern TreePattern::Clone() const {
  TreePattern c;
  c.input_field = input_field;
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

std::vector<Symbol> TreePattern::OutputFields() const {
  std::vector<Symbol> out;
  if (root) CollectOutputs(*root, &out);
  return out;
}

bool TreePattern::SingleOutputAtExtractionPoint() const {
  // Counts rather than collecting OutputFields(): the pattern algorithms
  // and the cost model ask this on every pattern evaluation.
  const PatternNode* ep = ExtractionPoint();
  return ep != nullptr && ep->output != kInvalidSymbol &&
         CountOutputs(*root) == 1;
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
    PrintNode(*root, interner, &out);
  }
  return out;
}

bool Equal(const PatternNode& a, const PatternNode& b) {
  if (a.axis != b.axis || !(a.test == b.test) || a.output != b.output ||
      a.position != b.position) {
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
  if (a.input_field != b.input_field) return false;
  if ((a.root == nullptr) != (b.root == nullptr)) return false;
  return a.root == nullptr || Equal(*a.root, *b.root);
}

TreePattern MakeSingleStep(Symbol input_field, Axis axis, const NodeTest& test,
                           Symbol output) {
  TreePattern tp;
  tp.input_field = input_field;
  tp.root = std::make_unique<PatternNode>();
  tp.root->axis = axis;
  tp.root->test = test;
  tp.root->output = output;
  return tp;
}

bool RenameOutput(TreePattern* tp, Symbol from, Symbol to) {
  return tp->root != nullptr && RenameIn(tp->root.get(), from, to);
}

void AppendPath(TreePattern* tp, TreePattern suffix) {
  PatternNode* ep = tp->ExtractionPoint();
  if (ep == nullptr || suffix.root == nullptr) return;
  ep->output = kInvalidSymbol;  // the intermediate binding is dropped
  ep->next = std::move(suffix.root);
}

void AppendPathKeepOutput(TreePattern* tp, TreePattern suffix) {
  PatternNode* ep = tp->ExtractionPoint();
  if (ep == nullptr || suffix.root == nullptr) return;
  ep->next = std::move(suffix.root);
}

namespace {

void ClearAllOutputs(PatternNode* n) {
  n->output = kInvalidSymbol;
  for (PatternNodePtr& p : n->predicates) ClearAllOutputs(p.get());
  if (n->next) ClearAllOutputs(n->next.get());
}

}  // namespace

void AttachPredicate(TreePattern* tp, TreePattern pred) {
  PatternNode* ep = tp->ExtractionPoint();
  if (ep == nullptr || pred.root == nullptr) return;
  // Outputs inside a predicate branch are unobservable after the merge.
  ClearAllOutputs(pred.root.get());
  ep->predicates.push_back(std::move(pred.root));
}

}  // namespace xqtp::pattern
