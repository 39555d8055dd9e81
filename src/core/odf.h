// ODF analysis: infers for each Core expression whether its result is
// statically known to be in document order and duplicate-free, plus an
// abstract cardinality. This is the machinery behind the paper's
// "document order rewritings" (removal of redundant ddo calls), following
// the properties of Hidders et al. [19].
#ifndef XQTP_CORE_ODF_H_
#define XQTP_CORE_ODF_H_

#include <unordered_map>

#include "core/ast.h"

namespace xqtp::core {

/// Abstract cardinality of a sequence.
enum class Card : uint8_t {
  kOne,        ///< exactly one item
  kZeroOrOne,  ///< at most one item
  kMany,       ///< unknown / possibly more than one
};

/// Synthesized order/duplicate properties. `unrelated` is the key extra
/// property from Hidders et al. [19]: no two distinct nodes of the
/// sequence stand in an ancestor-descendant relationship. Child steps
/// from an ordered, duplicate-free, *unrelated* sequence stay ordered,
/// duplicate-free and unrelated; descendant steps from such a sequence
/// stay ordered and duplicate-free but become related — which is exactly
/// why query Q5 (a child step over a descendant result, iterated by a
/// FLWOR) is not a tree pattern while Q1b is.
struct OdfProps {
  bool ordered = false;    ///< known to be in document order
  bool dup_free = false;   ///< known to contain no duplicate node
  bool unrelated = false;  ///< no two nodes are ancestor-related
  Card card = Card::kMany;

  bool OrderedDupFree() const { return ordered && dup_free; }

  static OdfProps Singleton() { return {true, true, true, Card::kOne}; }
  static OdfProps Unknown() { return {false, false, false, Card::kMany}; }
};

/// Per-variable properties environment. A variable's entry describes the
/// *item* bound to it (for for-variables, always a singleton).
using OdfEnv = std::unordered_map<VarId, OdfProps>;

/// Computes the ODF properties of `e`. Globals (absent from `env`) are
/// singleton document nodes per the engine binding contract.
OdfProps ComputeOdf(const CoreExpr& e, const VarTable& vars,
                    const OdfEnv& env);

}  // namespace xqtp::core

#endif  // XQTP_CORE_ODF_H_
