// Algebraic tree-pattern detection: the rewrite rules of the paper's
// Figure 3, applied to a fixpoint so the largest tree patterns are found.
//
//  (a) TreeJoin[s](IN#in)                -> MapToItem{IN#out}(
//                                             TupleTreePattern[IN#in/s{out}](IN))
//  (b) MapToItem{TreeJoin[s](IN#in)}(Op) -> MapToItem{IN#out}(
//                                             TupleTreePattern[IN#in/s{out}](Op))
//  (c) MapFromItem{[o1 : IN]}(MapToItem{IN#o2}(TTP[p{o2}](Op)))
//                                        -> TTP[p{o1}](Op)
//  (d) TTP[IN#o1/p2{o2}](TTP[IN#in/p1/s{o1}](Op))
//                                        -> TTP[IN#in/p1/s/p2{o2}](Op)
//  (e) Select{boolean(MapToItem{IN#oK}(TTP[IN#o/predK{oK}](IN))) and ...}
//            (TTP[IN#in/s{o}](Op))       -> TTP[IN#in/s[pred1]..[predN]{o}](Op)
//  (f) fs:ddo(MapToItem{IN#o}(TTP[p{o}](Op)))
//                                        -> MapToItem{IN#o}(TTP[p{o}](Op))
//      when the input produces at most one tuple (so the operator's
//      output is already in document order and duplicate-free).
// plus clean-up rules (MapToItem/MapFromItem round-trip elimination).
#ifndef XQTP_ALGEBRA_OPTIMIZE_H_
#define XQTP_ALGEBRA_OPTIMIZE_H_

#include "algebra/ops.h"
#include "analysis/verify_scope.h"
#include "common/status.h"

namespace xqtp::analysis {
class EquivChecker;
}  // namespace xqtp::analysis

namespace xqtp::algebra {

struct OptimizeOptions {
  /// Master switch; off reproduces the "old engine" (nested maps +
  /// navigational TreeJoin) used as the baseline in Figure 4.
  bool detect_tree_patterns = true;
  /// The paper's future-work extension: fold constant positional
  /// predicates ("[k]") into pattern steps (rule (g)), so positional
  /// queries like Q3 compile to a single TupleTreePattern instead of a
  /// pattern embedded in maps. On by default, as in
  /// engine::CompileOptions; false gives the paper's plan shapes.
  bool positional_patterns = true;
  int max_rounds = 64;
  /// Run analysis::VerifyPlan after every fixpoint round that changed the
  /// plan (and after field canonicalization); a violation is attributed
  /// to the rules that fired in that round. On by default in Debug
  /// builds.
  bool verify = analysis::kVerifyByDefault;
  /// Enables the verifier's global-variable checks when supplied.
  const core::VarTable* vars = nullptr;
  /// Translation-validation oracle (analysis/equiv_checker.h): when set
  /// together with `vars`, the plan is snapshotted before each fixpoint
  /// round and both forms are executed against the witness corpus after a
  /// round changed the plan; a semantic divergence aborts optimization
  /// with the fired rules, the minimized witness, and both printed plans.
  /// Non-owning.
  analysis::EquivChecker* equiv = nullptr;
};

/// Rewrites `plan` in place. Field names are canonicalized afterwards
/// (first field becomes "dot", then "out", "out1", ...) so that
/// syntactic query variants yield byte-identical plans.
[[nodiscard]]
Status Optimize(OpPtr* plan, StringInterner* interner,
                const OptimizeOptions& opts = {});

}  // namespace xqtp::algebra

#endif  // XQTP_ALGEBRA_OPTIMIZE_H_
