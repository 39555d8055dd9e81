// Tree patterns, per the grammar of Section 4.1 of the paper:
//
//   TreePattern ::= IN#FieldName (/Pattern)?
//   Pattern     ::= Step ([Pattern])* (/Pattern)?
//   Step        ::= Axis NodeTest ({FieldName})?
//
// A pattern is a tree of steps: each node has an axis + node test,
// predicate branches, and an optional continuation of the main path. The
// paper restricts patterns to one output node, so the one output-field
// annotation belongs to the pattern and always sits on the extraction
// point. The TupleTreePattern operator evaluates the pattern against the
// context node each input tuple's field holds (exec::ContextNode); a
// batch of tuples is evaluated over its distinct context nodes, in
// document order (exec::EvalPatternLifted).
#ifndef XQTP_PATTERN_TREE_PATTERN_H_
#define XQTP_PATTERN_TREE_PATTERN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "xdm/axis.h"

namespace xqtp::pattern {

struct PatternNode;
using PatternNodePtr = std::unique_ptr<PatternNode>;

/// One step in a tree pattern.
struct PatternNode {
  Axis axis = Axis::kChild;
  NodeTest test;
  /// Positional constraint (the paper's future-work extension): when > 0,
  /// only the position-th node matching axis::test *per parent binding*
  /// (in document order, counted before the predicate branches) matches
  /// this step. 0 means no constraint.
  int position = 0;
  /// Predicate branches ("[Pattern]").
  std::vector<PatternNodePtr> predicates;
  /// Continuation of the main path ("/Pattern").
  PatternNodePtr next;
};

/// A whole tree pattern: the input field holding the context nodes, the
/// output field the extraction point's bindings are returned in, and the
/// root step of the pattern.
struct TreePattern {
  Symbol input_field = kInvalidSymbol;
  /// The output annotation {field} of the extraction point.
  Symbol output = kInvalidSymbol;
  PatternNodePtr root;

  TreePattern() = default;
  TreePattern(TreePattern&&) = default;
  TreePattern& operator=(TreePattern&&) = default;

  TreePattern Clone() const;

  /// The last step of the main path (the extraction point per Def. 4.1).
  PatternNode* ExtractionPoint();
  const PatternNode* ExtractionPoint() const;

  /// Number of steps (main path + predicate branches).
  int StepCount() const;

  /// Maximum number of predicate branches hanging off any single step.
  int MaxBranching() const;

  /// Renders the paper's syntax, e.g.
  /// "IN#dot/descendant::person[child::emailaddress]/child::name{out}".
  std::string ToString(const StringInterner& interner) const;

  /// True iff every step (main path and predicates) uses an axis allowed
  /// by the pattern grammar (the downward axes). The optimizer only
  /// builds such patterns, the plan verifier rejects any other, and
  /// exec::EvalPattern returns Status::Internal for one.
  bool UsesOnlyPatternAxes() const;

  /// True iff any step carries a positional constraint (the extension).
  bool HasPositionalSteps() const;
};

bool Equal(const PatternNode& a, const PatternNode& b);
bool Equal(const TreePattern& a, const TreePattern& b);

/// Builds a single-step pattern IN#input/axis::test{output}.
TreePattern MakeSingleStep(Symbol input_field, Axis axis, const NodeTest& test,
                           Symbol output);

/// Appends `suffix`'s root chain after this pattern's extraction point
/// (rewrite rule (d)): pattern/step1{out1} + IN#out1/step2{out2}
/// = pattern/step1/step2{out2}. The suffix's output becomes the pattern's;
/// the intermediate binding is dropped. The caller must have verified
/// that `suffix.input_field` equals this pattern's output.
void AppendPath(TreePattern* tp, TreePattern suffix);

/// Attaches `pred` (rooted at this pattern's output) as a predicate branch
/// of the extraction point (rewrite rule (e)). `pred`'s output is dropped:
/// bindings inside a predicate branch are unobservable.
void AttachPredicate(TreePattern* tp, TreePattern pred);

}  // namespace xqtp::pattern

#endif  // XQTP_PATTERN_TREE_PATTERN_H_
