// The tuple algebra of Re/Siméon/Fernández (ICDE'06) extended with the
// paper's TupleTreePattern operator.
//
// Two plan "sorts" coexist, as in the paper:
//  - item plans produce XDM sequences (TreeJoin, ddo, function calls, ...);
//  - tuple plans produce tuple sequences (MapFromItem, Select,
//    TupleTreePattern, ...).
// MapToItem / MapFromItem convert between them. Dependent sub-plans
// (written {...} in the paper) are evaluated once per input tuple or item,
// with IN denoting the current tuple (kFieldAccess / kInputTuple) or the
// current item (kInputItem).
//
// Out-of-fragment Core expressions (general FLWOR over non-linear scopes,
// positional loops, typeswitch) compile into scoped operators (kForEach /
// kLetIn / kScopedVar ...) — the "intermediate maps" the paper leaves in
// place around detected patterns.
#ifndef XQTP_ALGEBRA_OPS_H_
#define XQTP_ALGEBRA_OPS_H_

#include <memory>
#include <vector>

#include "core/ast.h"
#include "pattern/tree_pattern.h"
#include "xdm/axis.h"
#include "xdm/item.h"

namespace xqtp::algebra {

enum class OpKind : uint8_t {
  // ---- tuple plans ----
  kMapFromItem,      ///< MapFromItem{[field : dep]}(inputs[0]) — one tuple
                     ///< per item of the item-plan input
  kSelect,           ///< Select{dep}(inputs[0]) — EBV filter over tuples
  kTupleTreePattern, ///< TupleTreePattern[tp](inputs[0])
  kInputTuple,       ///< IN as a tuple plan (the current tuple, once)

  // ---- item plans ----
  kMapToItem,        ///< MapToItem{dep}(inputs[0]) — concat dep over tuples
  kTreeJoin,         ///< TreeJoin[axis::test](inputs[0]) — navigational step
  kDdo,              ///< fs:distinct-doc-order(inputs[0])
  kConst,            ///< literal
  kGlobalVar,        ///< a query global ($d, $input)
  kInputItem,        ///< IN as an item plan (the current item)
  kFieldAccess,      ///< IN#field of the current tuple
  kFnCall,           ///< fn:boolean / fn:count / ...
  kCompare,
  kArith,
  kAnd,
  kOr,
  kSequence,         ///< concatenation of inputs
  kIf,               ///< if (inputs[0]) then inputs[1] else inputs[2]

  // ---- scoped item plans (outside the tuple fragment) ----
  kForEach,          ///< for var (at pos_var) in inputs[0]
                     ///< (where dep2)? return dep
  kLetIn,            ///< let var := inputs[0] return dep
  kScopedVar,        ///< reference to a kForEach / kLetIn variable
  kTypeswitch,       ///< typeswitch(inputs[0]) case numeric() as var
                     ///< return dep default pos_var return dep2
};

/// True for operators producing tuple sequences.
bool IsTuplePlan(OpKind kind);

struct Op;
using OpPtr = std::unique_ptr<Op>;

/// One algebra operator. Active fields depend on `kind`.
struct Op {
  OpKind kind;

  /// Independent input sub-plans (evaluated in the parent's context).
  std::vector<OpPtr> inputs;
  /// Dependent sub-plans (evaluated per input tuple/item).
  OpPtr dep;
  OpPtr dep2;

  Symbol field = kInvalidSymbol;      ///< kMapFromItem / kFieldAccess
  pattern::TreePattern tp;            ///< kTupleTreePattern
  Axis axis = Axis::kChild;           ///< kTreeJoin
  NodeTest test;                      ///< kTreeJoin
  xdm::Item literal;                  ///< kConst
  core::VarId var = core::kNoVar;     ///< kGlobalVar / kForEach / kLetIn /
                                      ///< kScopedVar / kTypeswitch case var
  core::VarId pos_var = core::kNoVar; ///< kForEach positional var /
                                      ///< kTypeswitch default var
  core::CoreFn fn = core::CoreFn::kBoolean;     ///< kFnCall
  xdm::CompareOp cmp_op = xdm::CompareOp::kEq;  ///< kCompare
  xdm::ArithOp arith_op = xdm::ArithOp::kAdd;   ///< kArith

  explicit Op(OpKind k) : kind(k) {}
};

OpPtr MakeOp(OpKind k);
OpPtr Clone(const Op& op);

/// Structural statistics used by tests and the ablation bench.
struct PlanStats {
  int tree_pattern_ops = 0;   ///< number of TupleTreePattern operators
  int tree_join_ops = 0;      ///< number of navigational TreeJoin operators
  int map_ops = 0;            ///< MapToItem + MapFromItem
  int scoped_ops = 0;         ///< ForEach / LetIn
  int max_pattern_steps = 0;  ///< steps in the largest detected pattern
  int ddo_ops = 0;
};

PlanStats ComputeStats(const Op& plan);

}  // namespace xqtp::algebra

#endif  // XQTP_ALGEBRA_OPS_H_
