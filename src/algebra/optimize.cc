#include "algebra/optimize.h"

#include <string>
#include <unordered_map>
#include <unordered_set>

#include "analysis/equiv_checker.h"
#include "analysis/plan_verifier.h"
#include "common/fault_injection.h"
#include "exec/governor.h"

namespace xqtp::algebra {

namespace {

using FieldSet = std::unordered_set<Symbol>;

/// Over-approximation of the ambient-tuple fields a (dependent) plan may
/// read: every IN#field plus every TupleTreePattern input field.
void CollectReads(const Op& op, FieldSet* out) {
  if (op.kind == OpKind::kFieldAccess) out->insert(op.field);
  if (op.kind == OpKind::kTupleTreePattern) out->insert(op.tp.input_field);
  for (const OpPtr& in : op.inputs) CollectReads(*in, out);
  if (op.dep) CollectReads(*op.dep, out);
  if (op.dep2) CollectReads(*op.dep2, out);
}

FieldSet ReadsOf(const Op& op) {
  FieldSet s;
  CollectReads(op, &s);
  return s;
}

/// True iff every main-path step of the pattern is child-like (child /
/// attribute / self). Bindings of such a pattern from a single context
/// node live in pairwise-disjoint subtrees, so the cascaded (per-binding)
/// order equals document order and merging two patterns (rule (d)) cannot
/// change the result. Descendant steps produce ancestor-related bindings,
/// for which merging is only sound under an enclosing ddo — this is
/// exactly what distinguishes Q1a (ddo present, merge allowed) from Q5
/// (no ddo, the two patterns must stay separate).
bool MainPathChildLike(const pattern::TreePattern& tp) {
  for (const pattern::PatternNode* n = tp.root.get(); n != nullptr;
       n = n->next.get()) {
    switch (n->axis) {
      case Axis::kChild:
      case Axis::kAttribute:
      case Axis::kSelf:
        break;
      default:
        return false;
    }
  }
  return true;
}

/// True iff field `f` of every tuple produced by `op` is a single item —
/// the precondition for collapsing a MapFromItem/MapToItem round trip.
bool SingletonField(const Op& op, Symbol f) {
  switch (op.kind) {
    case OpKind::kMapFromItem:
      return op.field == f && op.dep != nullptr &&
             op.dep->kind == OpKind::kInputItem;
    case OpKind::kTupleTreePattern:
      // Pattern bindings are single nodes.
      return op.tp.output == f || SingletonField(*op.inputs[0], f);
    case OpKind::kSelect:
      return SingletonField(*op.inputs[0], f);
    default:
      return false;
  }
}

class Optimizer {
 public:
  Optimizer(StringInterner* interner, const OptimizeOptions& opts)
      : interner_(interner), opts_(opts) {}

  void RunRound(OpPtr* plan, bool* changed) {
    Rewrite(plan, FieldSet{}, /*odd_ctx=*/false, changed);
  }

 private:
  Symbol FreshField() {
    std::string name = counter_ == 0 ? "out" : "out" + std::to_string(counter_);
    ++counter_;
    return interner_->Intern(name);
  }

  /// True if `op` produces at most one tuple whose pattern-context field is
  /// a singleton — the precondition of rule (f).
  static bool ProducesAtMostOneTuple(const Op& op) {
    switch (op.kind) {
      case OpKind::kInputTuple:
        return true;
      case OpKind::kMapFromItem:
        // One tuple per item of the input; globals are singleton documents
        // by the engine binding contract, constants are single items.
        return op.inputs[0]->kind == OpKind::kGlobalVar ||
               op.inputs[0]->kind == OpKind::kConst;
      default:
        return false;
    }
  }

  /// Recognizes the shape boolean(MapToItem{IN#o}(TTP[IN#in/p{o}](IN)))
  /// required for a conjunct of rule (e). Returns the TTP operator.
  static Op* MatchPredicateTerm(Op* term, Symbol required_input) {
    if (term->kind != OpKind::kFnCall || term->fn != core::CoreFn::kBoolean ||
        term->inputs.size() != 1) {
      return nullptr;
    }
    Op* map = term->inputs[0].get();
    if (map->kind != OpKind::kMapToItem ||
        map->dep->kind != OpKind::kFieldAccess) {
      return nullptr;
    }
    Op* ttp = map->inputs[0].get();
    if (ttp->kind != OpKind::kTupleTreePattern ||
        ttp->inputs[0]->kind != OpKind::kInputTuple) {
      return nullptr;
    }
    if (ttp->tp.input_field != required_input) return nullptr;
    // The term's value is the EBV of the pattern's output bindings.
    if (ttp->tp.output != map->dep->field) return nullptr;
    return ttp;
  }

  static void FlattenConjunction(Op* pred, std::vector<Op*>* terms) {
    if (pred->kind == OpKind::kAnd) {
      FlattenConjunction(pred->inputs[0].get(), terms);
      FlattenConjunction(pred->inputs[1].get(), terms);
    } else {
      terms->push_back(pred);
    }
  }

  /// One bottom-up pass. `live` holds the ambient-tuple fields that may be
  /// read by operators above `*op` in the same tuple pipeline; `odd_ctx`
  /// ("order/duplicate insensitive") is true when an enclosing operator
  /// (fs:ddo, an effective-boolean-value consumer, ...) makes the order
  /// and multiplicity of this sub-plan's result unobservable.
  void Rewrite(OpPtr* op, const FieldSet& live, bool odd_ctx, bool* changed) {
    Op& n = **op;

    // ---- recurse with the right liveness/sensitivity for each input ----
    switch (n.kind) {
      case OpKind::kMapToItem: {
        FieldSet inner = ReadsOf(*n.dep);
        Rewrite(&n.inputs[0], inner, odd_ctx, changed);
        // Rule (b) must see the TreeJoin before rule (a) (which would fire
        // during recursion into the dependent plan) consumes it.
        bool rule_b_applies = n.dep->kind == OpKind::kTreeJoin &&
                              n.dep->inputs[0]->kind == OpKind::kFieldAccess &&
                              AxisAllowedInPattern(n.dep->axis);
        if (!rule_b_applies) Rewrite(&n.dep, FieldSet{}, odd_ctx, changed);
        break;
      }
      case OpKind::kSelect: {
        FieldSet inner = live;
        FieldSet pred_reads = ReadsOf(*n.dep);
        inner.insert(pred_reads.begin(), pred_reads.end());
        Rewrite(&n.inputs[0], inner, odd_ctx, changed);
        // The predicate is consumed through its EBV: fully insensitive.
        Rewrite(&n.dep, FieldSet{}, /*odd_ctx=*/true, changed);
        break;
      }
      case OpKind::kTupleTreePattern: {
        FieldSet inner = live;
        inner.erase(n.tp.output);
        inner.insert(n.tp.input_field);
        Rewrite(&n.inputs[0], inner, odd_ctx, changed);
        break;
      }
      case OpKind::kMapFromItem:
        // The input is an item plan; tuple pipelines inside it are rooted
        // at their own sources.
        Rewrite(&n.inputs[0], FieldSet{}, odd_ctx, changed);
        if (n.dep) Rewrite(&n.dep, FieldSet{}, odd_ctx, changed);
        break;
      case OpKind::kDdo:
        Rewrite(&n.inputs[0], FieldSet{}, /*odd_ctx=*/true, changed);
        break;
      case OpKind::kFnCall: {
        bool arg_insensitive = n.fn == core::CoreFn::kBoolean ||
                               n.fn == core::CoreFn::kNot ||
                               n.fn == core::CoreFn::kEmpty ||
                               n.fn == core::CoreFn::kExists;
        for (OpPtr& in : n.inputs) {
          Rewrite(&in, FieldSet{}, arg_insensitive, changed);
        }
        break;
      }
      case OpKind::kCompare:
      case OpKind::kAnd:
      case OpKind::kOr:
        // Existential / EBV consumers.
        for (OpPtr& in : n.inputs) {
          Rewrite(&in, FieldSet{}, /*odd_ctx=*/true, changed);
        }
        break;
      case OpKind::kForEach:
        Rewrite(&n.inputs[0], FieldSet{}, /*odd_ctx=*/false, changed);
        if (n.dep) Rewrite(&n.dep, FieldSet{}, odd_ctx, changed);
        if (n.dep2) Rewrite(&n.dep2, FieldSet{}, /*odd_ctx=*/true, changed);
        break;
      default:
        for (OpPtr& in : n.inputs) {
          Rewrite(&in, FieldSet{}, /*odd_ctx=*/false, changed);
        }
        if (n.dep) Rewrite(&n.dep, FieldSet{}, /*odd_ctx=*/false, changed);
        if (n.dep2) Rewrite(&n.dep2, FieldSet{}, /*odd_ctx=*/false, changed);
        break;
    }

    // ---- apply rules at this node ----
    // Rule (b): MapToItem{TreeJoin[s](IN#in)}(Op). Tried before (a).
    if (n.kind == OpKind::kMapToItem && n.dep->kind == OpKind::kTreeJoin &&
        n.dep->inputs[0]->kind == OpKind::kFieldAccess &&
        AxisAllowedInPattern(n.dep->axis)) {
      analysis::VerifyScope scope("optimize rule (b)");
      scope.MarkFired();
      Symbol in_field = n.dep->inputs[0]->field;
      Symbol out = FreshField();
      OpPtr ttp = MakeOp(OpKind::kTupleTreePattern);
      ttp->tp = pattern::MakeSingleStep(in_field, n.dep->axis, n.dep->test, out);
      ttp->inputs.push_back(std::move(n.inputs[0]));
      OpPtr access = MakeOp(OpKind::kFieldAccess);
      access->field = out;
      n.dep = std::move(access);
      n.inputs[0] = std::move(ttp);
      *changed = true;
    }

    // Rule (a): a remaining TreeJoin[s](IN#in) anywhere in a dependent
    // plan becomes MapToItem{IN#out}(TTP[IN#in/s{out}](IN)).
    if (n.kind == OpKind::kTreeJoin &&
        n.inputs[0]->kind == OpKind::kFieldAccess &&
        AxisAllowedInPattern(n.axis)) {
      analysis::VerifyScope scope("optimize rule (a)");
      scope.MarkFired();
      Symbol in_field = n.inputs[0]->field;
      Symbol out = FreshField();
      OpPtr ttp = MakeOp(OpKind::kTupleTreePattern);
      ttp->tp = pattern::MakeSingleStep(in_field, n.axis, n.test, out);
      ttp->inputs.push_back(MakeOp(OpKind::kInputTuple));
      OpPtr map = MakeOp(OpKind::kMapToItem);
      OpPtr access = MakeOp(OpKind::kFieldAccess);
      access->field = out;
      map->dep = std::move(access);
      map->inputs.push_back(std::move(ttp));
      *op = std::move(map);
      *changed = true;
      return;
    }

    // Rule (c): MapFromItem{[o1 : IN]}(MapToItem{IN#o2}(TTP[p{o2}](Op)))
    // -> TTP[p{o1}](Op).
    if (n.kind == OpKind::kMapFromItem && n.dep &&
        n.dep->kind == OpKind::kInputItem &&
        n.inputs[0]->kind == OpKind::kMapToItem) {
      Op& map = *n.inputs[0];
      if (map.dep->kind == OpKind::kFieldAccess &&
          map.inputs[0]->kind == OpKind::kTupleTreePattern) {
        Op& ttp = *map.inputs[0];
        if (ttp.tp.output == map.dep->field) {
          analysis::VerifyScope scope("optimize rule (c)");
          scope.MarkFired();
          ttp.tp.output = n.field;
          OpPtr repl = std::move(n.inputs[0]->inputs[0]);
          *op = std::move(repl);
          *changed = true;
          return;
        }
      }
    }

    // Clean-up (the paper's unlisted robustness rules): a
    // MapFromItem{[f : IN]}(MapToItem{IN#f}(Op)) round trip re-packages
    // each tuple's singleton field f as a fresh tuple — the identity on
    // the tuple stream (up to unobserved extra fields) whenever f is a
    // singleton in every tuple of Op. This exposes Select/TTP stacks to
    // rules (d) and (e), e.g. in the paper's Q2 plan.
    if (n.kind == OpKind::kMapFromItem && n.dep &&
        n.dep->kind == OpKind::kInputItem &&
        n.inputs[0]->kind == OpKind::kMapToItem) {
      Op& map = *n.inputs[0];
      if (map.dep->kind == OpKind::kFieldAccess &&
          map.dep->field == n.field &&
          SingletonField(*map.inputs[0], n.field)) {
        analysis::VerifyScope scope("optimize clean-up (map round-trip)");
        scope.MarkFired();
        OpPtr repl = std::move(map.inputs[0]);
        *op = std::move(repl);
        *changed = true;
        return;
      }
    }

    // Rule (d): merge consecutive TupleTreePatterns along the main path.
    // The merged operator enumerates bindings in document order of the
    // final output, while the cascade runs in inner-binding-major order —
    // the two coincide only if the inner pattern's bindings are pairwise
    // unrelated (all child-like steps), or if an enclosing ddo masks the
    // difference. Without either, the merge would incorrectly turn query
    // Q5 into Q1a.
    if (n.kind == OpKind::kTupleTreePattern &&
        n.inputs[0]->kind == OpKind::kTupleTreePattern &&
        (odd_ctx || MainPathChildLike(n.inputs[0]->tp))) {
      Op& inner = *n.inputs[0];
      const Symbol inner_out = inner.tp.output;
      // The inner binding disappears after the merge; that is fine if no
      // ancestor reads it, or if the outer pattern re-defines a field of
      // the same name (its output overwrites an input field, so readers
      // above never saw the inner binding anyway).
      if (n.tp.input_field == inner_out &&
          (live.count(inner_out) == 0 || n.tp.output == inner_out)) {
        analysis::VerifyScope scope("optimize rule (d)");
        scope.MarkFired();
        pattern::AppendPath(&inner.tp, std::move(n.tp));
        OpPtr repl = std::move(n.inputs[0]);
        *op = std::move(repl);
        *changed = true;
        return;
      }
    }

    // Rule (e): fold a conjunction of pure pattern-existence predicates
    // into predicate branches of the pattern below.
    if (n.kind == OpKind::kSelect &&
        n.inputs[0]->kind == OpKind::kTupleTreePattern) {
      Op& inner = *n.inputs[0];
      std::vector<Op*> terms;
      FlattenConjunction(n.dep.get(), &terms);
      bool all_match = !terms.empty();
      std::vector<Op*> pred_ttps;
      for (Op* t : terms) {
        Op* ttp = MatchPredicateTerm(t, inner.tp.output);
        if (ttp == nullptr) {
          all_match = false;
          break;
        }
        pred_ttps.push_back(ttp);
      }
      if (all_match) {
        analysis::VerifyScope scope("optimize rule (e)");
        scope.MarkFired();
        for (Op* p : pred_ttps) {
          pattern::AttachPredicate(&inner.tp, std::move(p->tp));
        }
        OpPtr repl = std::move(n.inputs[0]);
        *op = std::move(repl);
        *changed = true;
        return;
      }
    }

    // Rule (f): drop fs:ddo over a pattern whose semantics already
    // coincide with XPath (at most one input tuple: the extraction point's
    // bindings come out in document order, without duplicates).
    if (n.kind == OpKind::kDdo && n.inputs[0]->kind == OpKind::kMapToItem) {
      Op& map = *n.inputs[0];
      if (map.dep->kind == OpKind::kFieldAccess &&
          map.inputs[0]->kind == OpKind::kTupleTreePattern) {
        Op& ttp = *map.inputs[0];
        if (ttp.tp.output == map.dep->field &&
            ProducesAtMostOneTuple(*ttp.inputs[0])) {
          analysis::VerifyScope scope("optimize rule (f)");
          scope.MarkFired();
          OpPtr repl = std::move(n.inputs[0]);
          *op = std::move(repl);
          *changed = true;
          return;
        }
      }
    }

    // Rule (g) — the positional extension: a positional loop that merely
    // indexes a single-step pattern's output,
    //   ForEach[$x at $p]{$x}where{$p = k}(
    //       MapToItem{IN#o}(TupleTreePattern[IN#in/step{o}](Op)))
    // becomes MapToItem{IN#o}(TupleTreePattern[IN#in/step[k]{o}](Op)).
    // The pattern must be a bare single step: the loop's position counts
    // the step's raw matches, which is what the pattern-level constraint
    // expresses.
    if (opts_.positional_patterns && n.kind == OpKind::kForEach &&
        n.pos_var != core::kNoVar && n.dep != nullptr &&
        n.dep->kind == OpKind::kScopedVar && n.dep->var == n.var &&
        n.dep2 != nullptr && n.dep2->kind == OpKind::kCompare &&
        n.dep2->cmp_op == xdm::CompareOp::kEq &&
        n.inputs[0]->kind == OpKind::kMapToItem) {
      // Extract the constant position from "$p = k" (either operand
      // order).
      const Op* lhs = n.dep2->inputs[0].get();
      const Op* rhs = n.dep2->inputs[1].get();
      if (lhs->kind != OpKind::kScopedVar) std::swap(lhs, rhs);
      int64_t k = 0;
      if (lhs->kind == OpKind::kScopedVar && lhs->var == n.pos_var &&
          rhs->kind == OpKind::kConst && rhs->literal.IsInteger() &&
          rhs->literal.integer() >= 1) {
        k = rhs->literal.integer();
      }
      Op& map = *n.inputs[0];
      if (k > 0 && map.dep->kind == OpKind::kFieldAccess &&
          map.inputs[0]->kind == OpKind::kTupleTreePattern) {
        Op& ttp = *map.inputs[0];
        if (ttp.tp.StepCount() == 1 && ttp.tp.root->position == 0 &&
            ttp.tp.root->predicates.empty() &&
            ttp.tp.output == map.dep->field) {
          analysis::VerifyScope scope("optimize rule (g)");
          scope.MarkFired();
          ttp.tp.root->position = static_cast<int>(k);
          OpPtr repl = std::move(n.inputs[0]);
          *op = std::move(repl);
          *changed = true;
          return;
        }
      }
    }

    // Clean-up: re-root a dependent tuple pipeline. A MapToItem whose
    // dependent plan is itself a MapToItem over a per-tuple pipeline
    // rooted at IN,
    //   MapToItem{MapToItem{d}(P(IN))}(Op)
    // evaluates P once per tuple of Op and concatenates — identical to
    // running the pipeline over Op directly:
    //   MapToItem{d}(P(Op)).
    // (TupleTreePattern and Select both process tuples independently and
    // preserve their order.) This exposes the inner pattern to rules (c)
    // and (d).
    if (n.kind == OpKind::kMapToItem && n.dep->kind == OpKind::kMapToItem) {
      // Walk the dependent pipeline down to its IN root.
      Op* bottom = n.dep.get();
      while (bottom->inputs.size() == 1 &&
             (bottom->kind == OpKind::kMapToItem ||
              bottom->kind == OpKind::kTupleTreePattern ||
              bottom->kind == OpKind::kSelect) &&
             bottom->inputs[0]->kind != OpKind::kInputTuple) {
        bottom = bottom->inputs[0].get();
      }
      bool pipeline_ok =
          bottom->inputs.size() == 1 &&
          bottom->inputs[0]->kind == OpKind::kInputTuple &&
          (bottom->kind == OpKind::kTupleTreePattern ||
           bottom->kind == OpKind::kSelect);
      if (pipeline_ok) {
        analysis::VerifyScope scope("optimize clean-up (pipeline re-root)");
        scope.MarkFired();
        bottom->inputs[0] = std::move(n.inputs[0]);
        OpPtr repl = std::move(n.dep);
        *op = std::move(repl);
        *changed = true;
        return;
      }
    }

    // Clean-up: MapToItem{IN#f}(MapFromItem{[f : IN]}(itemplan)) is the
    // identity on item plans.
    if (n.kind == OpKind::kMapToItem &&
        n.dep->kind == OpKind::kFieldAccess &&
        n.inputs[0]->kind == OpKind::kMapFromItem) {
      Op& from = *n.inputs[0];
      if (from.dep && from.dep->kind == OpKind::kInputItem &&
          from.field == n.dep->field) {
        analysis::VerifyScope scope("optimize clean-up (map identity)");
        scope.MarkFired();
        OpPtr repl = std::move(from.inputs[0]);
        *op = std::move(repl);
        *changed = true;
        return;
      }
    }
  }

  StringInterner* interner_;
  const OptimizeOptions& opts_;
  int counter_ = 0;
};

/// Canonical field renaming: deterministic walk; the first distinct field
/// becomes "dot", then "out", "out1", "out2", ...
class FieldCanonicalizer {
 public:
  explicit FieldCanonicalizer(StringInterner* interner)
      : interner_(interner) {}

  void Run(Op* plan) {
    Walk(plan);
  }

 private:
  Symbol Rename(Symbol s) {
    if (s == kInvalidSymbol) return s;
    auto it = map_.find(s);
    if (it != map_.end()) return it->second;
    std::string name = next_ == 0   ? "dot"
                       : next_ == 1 ? "out"
                                    : "out" + std::to_string(next_ - 1);
    ++next_;
    Symbol fresh = interner_->Intern(name);
    map_[s] = fresh;
    return fresh;
  }

  void Walk(Op* op) {
    for (OpPtr& in : op->inputs) Walk(in.get());
    if (op->kind == OpKind::kMapFromItem) op->field = Rename(op->field);
    if (op->kind == OpKind::kFieldAccess) op->field = Rename(op->field);
    if (op->kind == OpKind::kTupleTreePattern) {
      op->tp.input_field = Rename(op->tp.input_field);
      op->tp.output = Rename(op->tp.output);
    }
    if (op->dep) Walk(op->dep.get());
    if (op->dep2) Walk(op->dep2.get());
  }

  StringInterner* interner_;
  std::unordered_map<Symbol, Symbol> map_;
  int next_ = 0;
};

}  // namespace

Status Optimize(OpPtr* plan, StringInterner* interner,
                const OptimizeOptions& opts) {
  if (!opts.detect_tree_patterns) return Status::OK();
  analysis::PlanVerifyOptions vopts;
  vopts.vars = opts.vars;
  vopts.interner = interner;
  Optimizer optimizer(interner, opts);
  // The translation-validation oracle needs the variable table to bind
  // globals when executing snapshots.
  bool check_equiv = opts.equiv != nullptr && opts.vars != nullptr;
  for (int round = 0; round < opts.max_rounds; ++round) {
    // Compile-time governance checkpoint, mirroring the rewriter's.
    XQTP_RETURN_NOT_OK(exec::GovernorPoll());
    XQTP_FAULT_POINT("algebra.optimize.round");
    OpPtr before = check_equiv ? Clone(**plan) : nullptr;
    bool changed = false;
    optimizer.RunRound(plan, &changed);
    // Checkpoint: a violation here is attributed to the rules that fired
    // in this round (the VerifyScope trail).
    if (changed && opts.verify) {
      XQTP_RETURN_NOT_OK(analysis::VerifyPlan(**plan, vopts));
    }
    if (changed && check_equiv) {
      XQTP_RETURN_NOT_OK(opts.equiv->CheckPlan(*before, **plan, *opts.vars));
    }
    if (!changed) break;
  }
  {
    analysis::VerifyScope scope("optimize: field canonicalization");
    OpPtr before = check_equiv ? Clone(**plan) : nullptr;
    FieldCanonicalizer canon(interner);
    canon.Run(plan->get());
    if (opts.verify) {
      scope.MarkFired();
      XQTP_RETURN_NOT_OK(analysis::VerifyPlan(**plan, vopts));
    }
    if (check_equiv) {
      XQTP_RETURN_NOT_OK(opts.equiv->CheckPlan(*before, **plan, *opts.vars));
    }
  }
  return Status::OK();
}

}  // namespace xqtp::algebra
