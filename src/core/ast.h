// XQuery Core: the normalization target of the W3C Formal Semantics
// fragment used by the paper. Every binder introduces a *unique* VarId, so
// substitution is capture-safe by construction even though the printed form
// reuses names like $dot, exactly as the paper does.
#ifndef XQTP_CORE_AST_H_
#define XQTP_CORE_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "xdm/axis.h"
#include "xdm/item.h"
#include "xdm/sequence_ops.h"

namespace xqtp::core {

/// Unique variable identifier. Globals (free variables of the query, e.g.
/// $d or $input) are VarIds registered before normalization starts.
using VarId = int32_t;
inline constexpr VarId kNoVar = -1;

/// Coarse static types, sufficient to drive the paper's typeswitch rules.
enum class AbstractType : uint8_t {
  kNumeric,
  kBoolean,
  kString,
  kNodes,
  kUnknown,
};

/// Registry of variables: display name + static type for globals.
class VarTable {
 public:
  /// Creates a fresh variable (a binder occurrence).
  VarId Fresh(std::string name);

  /// Registers (or returns) a global by name. Globals are assumed to be
  /// bound to singleton node sequences (documents) unless another type is
  /// declared — this is the engine's binding contract.
  VarId Global(const std::string& name, AbstractType type = AbstractType::kNodes);

  const std::string& NameOf(VarId v) const { return names_.at(v); }
  bool IsGlobal(VarId v) const { return is_global_.at(v); }
  AbstractType GlobalType(VarId v) const { return global_types_.at(v); }

  /// Returns the VarId of a global by name, or kNoVar.
  VarId FindGlobal(const std::string& name) const;

  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<bool> is_global_;
  std::vector<AbstractType> global_types_;
  std::vector<VarId> globals_;
};

enum class CoreKind : uint8_t {
  kVar,
  kLiteral,
  kSequence,    ///< concatenation; zero children is the empty sequence ()
  kLet,         ///< let $var := children[0] return children[1]
  kFor,         ///< for $var (at $pos_var)? in children[0] (where `where`)? return children[1]
  kIf,          ///< if (children[0]) then children[1] else children[2]
  kStep,        ///< axis::test applied to the context variable `var`
  kDdo,         ///< fs:distinct-doc-order(children[0])
  kFnCall,      ///< fn (children = args)
  kTypeswitch,  ///< typeswitch(children[0]) case numeric() as $case_var
                ///<   return children[1] default $default_var return children[2]
  kCompare,     ///< children[0] op children[1]
  kArith,       ///< children[0] op children[1]
  kAnd,
  kOr,
};

/// Built-in functions in the Core fragment.
enum class CoreFn : uint8_t {
  kBoolean,       ///< fn:boolean — effective boolean value
  kCount,         ///< fn:count
  kNot,           ///< fn:not
  kEmpty,         ///< fn:empty
  kExists,        ///< fn:exists
  kRoot,          ///< fn:root — the document node above the argument node
  kData,          ///< fn:data — atomization (string-value of nodes)
  kString,        ///< fn:string — string value ("" for the empty sequence)
  kNumber,        ///< fn:number — numeric value (NaN if not a number)
  kStringLength,  ///< fn:string-length
  kConcat,        ///< fn:concat (two or more arguments)
  kContains,      ///< fn:contains(haystack, needle)
  kStartsWith,    ///< fn:starts-with(string, prefix)
  kSum,           ///< fn:sum (0 for the empty sequence)
};

/// Expected argument count for a Core function (-1 = variadic, >= 2).
int CoreFnArity(CoreFn fn);

const char* CoreFnName(CoreFn fn);

struct CoreExpr;
using CoreExprPtr = std::unique_ptr<CoreExpr>;

/// One Core expression. The active fields depend on `kind` (see CoreKind).
struct CoreExpr {
  CoreKind kind;

  VarId var = kNoVar;          ///< kVar: the variable; kLet/kFor: the binder;
                               ///< kStep: the context variable
  VarId pos_var = kNoVar;      ///< kFor: "at $pos" binder (kNoVar if absent)
  VarId case_var = kNoVar;     ///< kTypeswitch: numeric-case binder
  VarId default_var = kNoVar;  ///< kTypeswitch: default-case binder

  xdm::Item literal;           ///< kLiteral

  Axis axis = Axis::kChild;    ///< kStep
  NodeTest test;               ///< kStep

  CoreFn fn = CoreFn::kBoolean;          ///< kFnCall
  xdm::CompareOp cmp_op = xdm::CompareOp::kEq;  ///< kCompare
  xdm::ArithOp arith_op = xdm::ArithOp::kAdd;   ///< kArith

  std::vector<CoreExprPtr> children;
  CoreExprPtr where;           ///< kFor: optional where condition

  explicit CoreExpr(CoreKind k) : kind(k) {}
};

// ---- constructors ----------------------------------------------------------

CoreExprPtr MakeVar(VarId v);
CoreExprPtr MakeLiteral(xdm::Item item);
CoreExprPtr MakeEmpty();
CoreExprPtr MakeSequence(std::vector<CoreExprPtr> items);
CoreExprPtr MakeLet(VarId v, CoreExprPtr binding, CoreExprPtr body);
CoreExprPtr MakeFor(VarId v, VarId pos, CoreExprPtr seq, CoreExprPtr where,
                    CoreExprPtr body);
CoreExprPtr MakeIf(CoreExprPtr cond, CoreExprPtr then_e, CoreExprPtr else_e);
CoreExprPtr MakeStep(VarId ctx, Axis axis, NodeTest test);
/// Collapses ddo(ddo(x)) to ddo(x).
CoreExprPtr MakeDdo(CoreExprPtr arg);
CoreExprPtr MakeFnCall(CoreFn fn, std::vector<CoreExprPtr> args);
CoreExprPtr MakeTypeswitch(CoreExprPtr input, VarId case_var,
                           CoreExprPtr case_body, VarId default_var,
                           CoreExprPtr default_body);
CoreExprPtr MakeCompare(xdm::CompareOp op, CoreExprPtr lhs, CoreExprPtr rhs);
CoreExprPtr MakeArith(xdm::ArithOp op, CoreExprPtr lhs, CoreExprPtr rhs);
CoreExprPtr MakeAnd(CoreExprPtr lhs, CoreExprPtr rhs);
CoreExprPtr MakeOr(CoreExprPtr lhs, CoreExprPtr rhs);

// ---- utilities -------------------------------------------------------------

/// Deep copy.
CoreExprPtr Clone(const CoreExpr& e);

/// Number of free occurrences of `v` in `e`. Because VarIds are unique,
/// no shadowing is possible and this is a plain structural count.
int CountUses(const CoreExpr& e, VarId v);

/// True iff `v` occurs free in `e`.
inline bool Uses(const CoreExpr& e, VarId v) { return CountUses(e, v) > 0; }

/// Replaces every occurrence of variable `v` in `e` with a clone of
/// `replacement`. Capture-safe thanks to unique VarIds.
void Substitute(CoreExpr* e, VarId v, const CoreExpr& replacement);

/// Structural equality up to alpha-renaming of binders.
bool AlphaEqual(const CoreExpr& a, const CoreExpr& b);

}  // namespace xqtp::core

#endif  // XQTP_CORE_AST_H_
