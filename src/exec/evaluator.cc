#include "exec/evaluator.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/exec_stats.h"
#include "common/fault_injection.h"
#include "exec/fn_lib.h"
#include "exec/parallel.h"
#include "xdm/sequence_ops.h"
#include "xml/node.h"

namespace xqtp::exec {

namespace {

using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using xdm::Item;
using xdm::Sequence;

/// Approximate materialization cost of a sequence for the governor's
/// byte accountant. Items are counted at their in-vector size; string
/// payloads and node identity are shared and not re-counted. The point is
/// trapping runaway *cardinality* (cross products), not exact heap audit.
int64_t ApproxBytes(const Sequence& s) {
  return static_cast<int64_t>(s.size() * sizeof(Item));
}

/// Downstream consumer of a streamed tuple-plan pipeline. Producers call
/// it once per non-empty TupleBatch, in row order; an error Status stops
/// the stream.
using BatchSink = std::function<Status(TupleBatch&&)>;

/// A dependent sub-plan MapToItem{IN#f}(TupleTreePattern[P{f}](IN)): per
/// row, it returns P's bindings over that row's context.
bool IsLiftablePattern(const Op& op) {
  if (op.kind != OpKind::kMapToItem ||
      op.dep->kind != OpKind::kFieldAccess ||
      op.inputs[0]->kind != OpKind::kTupleTreePattern) {
    return false;
  }
  const Op& ttp = *op.inputs[0];
  return ttp.inputs[0]->kind == OpKind::kInputTuple &&
         ttp.tp.output == op.dep->field;
}

/// The lift rule: collects the liftable patterns (IsLiftablePattern)
/// inside `op` that the per-row walk evaluates on every row — operands of
/// comparisons, arithmetic, function calls and Sequence; inputs of
/// fs:ddo, TreeJoin, ForEach, LetIn and typeswitch; the condition of if;
/// the first operand of and/or. It never descends into a dependent
/// sub-plan: those rebind IN, or run a data-dependent number of times.
void CollectLifts(const Op& op, std::vector<const Op*>* out) {
  if (IsLiftablePattern(op)) {
    out->push_back(&op);
    return;
  }
  switch (op.kind) {
    case OpKind::kCompare:
    case OpKind::kArith:
    case OpKind::kFnCall:
    case OpKind::kSequence:
      for (const OpPtr& in : op.inputs) CollectLifts(*in, out);
      return;
    case OpKind::kDdo:
    case OpKind::kTreeJoin:
    case OpKind::kForEach:
    case OpKind::kLetIn:
    case OpKind::kTypeswitch:
    case OpKind::kIf:
    case OpKind::kAnd:
    case OpKind::kOr:
      CollectLifts(*op.inputs[0], out);
      return;
    default:
      return;
  }
}

/// True iff `node` is `ctx` or lies inside its pre/post region.
/// IsAncestorOf compares regions, which is only meaningful within one
/// document.
bool InRegion(const xml::Node* ctx, const xml::Node* node) {
  return node == ctx || (node->doc == ctx->doc && ctx->IsAncestorOf(*node));
}

/// Builds a TupleTreePattern's output batch: one row per bound node, the
/// node's input row with the node in the pattern's output field. The
/// schema is the input batch's columns in order, less an input column the
/// output field overwrites, then the output column.
///
/// When the input batch has exactly one logical row (the dominant
/// optimized plan: one tuple carrying the document root), the input
/// columns are NOT replicated per output row — Finish attaches them as
/// broadcast columns sharing the input's storage, so a root fan-out
/// binding 10^5 nodes copies zero input items.
class PatternBatchBuilder {
 public:
  /// A builder for `rows` output rows.
  PatternBatchBuilder(const TupleBatch& in, Symbol output, size_t rows)
      : in_(in), output_(output), broadcast_(in.rows() == 1) {
    bound_.reserve(rows);
    if (broadcast_) return;
    for (const TupleBatch::BoundColumn& bc : in.columns()) {
      if (bc.column->field != output) {
        gathered_.push_back({&bc, {}});
        gathered_.back().values.reserve(rows);
      }
    }
  }

  /// Appends one output row: input row `row` with `node` bound.
  void Add(size_t row, const xml::Node* node) {
    for (Gathered& g : gathered_) g.values.push_back(in_.Value(*g.src, row));
    bound_.emplace_back(node);
  }

  /// Assembles the batch (counts its rows as materialized tuples; the
  /// ExecStats batch count is taken where the batch is YIELDED between
  /// operators). The builder is consumed.
  TupleBatch Finish() {
    const size_t rows = bound_.size();
    TupleBatch out(rows);
    if (broadcast_) {
      for (const TupleBatch::BoundColumn& bc : in_.columns()) {
        if (bc.column->field == output_) continue;  // overwritten
        if (bc.column->values.size() == 1) {
          // The input column has exactly one physical value — share it.
          out.AddBroadcastColumn(bc.column);
        } else {
          // Single logical row selected out of a wider column: one copy
          // of one value, still broadcast to every output row.
          TupleColumn one;
          one.field = bc.column->field;
          one.values.push_back(in_.Value(bc, 0));
          out.AddBroadcastColumn(MakeColumn(std::move(one)));
        }
      }
    }
    for (Gathered& g : gathered_) {
      TupleColumn col;
      col.field = g.src->column->field;
      col.values = std::move(g.values);
      out.AddOwnedColumn(std::move(col));
    }
    TupleColumn col;
    col.field = output_;
    col.values = std::move(bound_);
    out.AddOwnedColumn(std::move(col));
    CountTuplesMaterialized(static_cast<int64_t>(rows));
    return out;
  }

 private:
  /// An input column copied per output row (multi-row inputs only).
  struct Gathered {
    const TupleBatch::BoundColumn* src;
    std::vector<Item> values;
  };

  const TupleBatch& in_;
  const Symbol output_;
  /// Single-row input: the input columns stay shared (broadcast).
  const bool broadcast_;
  std::vector<Gathered> gathered_;
  std::vector<Item> bound_;
};

class Evaluator {
 public:
  Evaluator(const core::VarTable& vars, const Bindings& bindings,
            const EvalOptions& opts)
      : vars_(vars), bindings_(bindings), opts_(opts) {
    int threads = ResolveThreads(opts.threads);
    if (threads > 1) {
      par_.emplace();
      par_->threads = threads;
      par_->min_fanout = std::max(1, opts.parallel_min_fanout);
      // Workers re-install the query's governor per morsel; the caller
      // (Evaluate) has already installed it on this thread.
      par_->governor = CurrentGovernor();
    }
  }

  Result<Sequence> Run(const Op& plan) {
    return EvalItem(plan, RowView());
  }

 private:
  /// Evaluates an item plan. `tuple` is the current tuple context for
  /// dependent plans (IN#field / IN as tuple) — a RowView over one row of
  /// a TupleBatch. No item plan sees a current item: the one MapFromItem
  /// dependent, IN (item), is read by the MapFromItem kernel itself.
  Result<Sequence> EvalItem(const Op& op, RowView tuple) {
    // The operator boundary is the evaluator's cooperative check cadence,
    // strided: a full governor check (cancel + deadline + budget) every
    // 32nd operator evaluation. Unstrided, the check's clock read and
    // atomics cost ~10% on cheap per-tuple plans (bench_governor); the
    // stride bounds cancellation latency by 32 operator evaluations while
    // keeping the overhead under the 2% target. Plain member counter:
    // the evaluator runs on the coordinating thread only (morsel workers
    // poll through their own per-morsel GovernorTickers).
    if ((governor_tick_++ & 31u) == 0) {
      XQTP_RETURN_NOT_OK(GovernorPoll());
    }
    switch (op.kind) {
      case OpKind::kConst:
        return Sequence{op.literal};
      case OpKind::kGlobalVar: {
        auto it = bindings_.find(op.var);
        if (it == bindings_.end()) {
          return Status::InvalidArgument("unbound query global $" +
                                         vars_.NameOf(op.var));
        }
        return it->second;
      }
      case OpKind::kScopedVar: {
        auto it = scoped_.find(op.var);
        if (it == scoped_.end()) {
          return Status::Internal("unbound scoped variable $" +
                                  vars_.NameOf(op.var));
        }
        return it->second;
      }
      case OpKind::kInputItem:
        return Status::Internal(
            "IN (item) used outside a MapFromItem dependent");
      case OpKind::kFieldAccess: {
        if (!tuple.valid()) {
          return Status::Internal("IN#field used outside a tuple context");
        }
        const Item* v = tuple.Get(op.field);
        if (v == nullptr) return Sequence{};
        return Sequence{*v};
      }
      case OpKind::kTreeJoin: {
        XQTP_ASSIGN_OR_RETURN(Sequence ctx,
                              EvalItem(*op.inputs[0], tuple));
        Sequence out;
        out.reserve(ctx.size());
        for (const Item& it : ctx) {
          if (!it.IsNode()) {
            return Status::TypeError("path step applied to an atomic value");
          }
          xdm::EvalAxisStep(it.node(), op.axis, op.test, &out);
        }
        return out;
      }
      case OpKind::kDdo: {
        XQTP_ASSIGN_OR_RETURN(Sequence in,
                              EvalItem(*op.inputs[0], tuple));
        // DistinctDocOrder's O(n) sortedness probe returns inputs that are
        // already sorted and distinct (single-output patterns emit such
        // sequences by construction) without re-sorting.
        return xdm::DistinctDocOrder(std::move(in));
      }
      case OpKind::kMapToItem: {
        if (const LiftedBindings* l = FindLift(op, tuple)) {
          // Lifted by the enclosing batch kernel: this row's bindings.
          const size_t r = tuple.row();
          Sequence out;
          out.reserve(l->offsets[r + 1] - l->offsets[r]);
          for (size_t k = l->offsets[r]; k < l->offsets[r + 1]; ++k) {
            out.push_back(Item(l->nodes[k]));
          }
          return out;
        }
        Sequence out;
        ScopedMemoryCharge mem;
        const Op& dep = *op.dep;
        // Fast path: a dependent plan that is just IN#field needs no
        // per-row evaluation at all — resolve the field symbol ONCE per
        // batch and append the column's items, one per row.
        const bool field_fast = dep.kind == OpKind::kFieldAccess;
        XQTP_RETURN_NOT_OK(EvalTupleBatches(
            *op.inputs[0], tuple, [&](TupleBatch&& b) -> Status {
              if (field_fast) {
                const TupleBatch::BoundColumn* col = b.Find(dep.field);
                if (col == nullptr) return Status::OK();  // absent = ()
                if (out.capacity() - out.size() < b.rows()) {
                  out.reserve(
                      std::max(out.size() + b.rows(), 2 * out.capacity()));
                }
                for (size_t i = 0; i < b.rows(); ++i) {
                  out.push_back(b.Value(*col, i));
                }
                return mem.Grow(
                    static_cast<int64_t>(b.rows() * sizeof(Item)));
              }
              LiftScope lifted(&lifts_);
              XQTP_RETURN_NOT_OK(LiftPatterns(dep, b, &lifted));
              for (size_t i = 0; i < b.rows(); ++i) {
                XQTP_ASSIGN_OR_RETURN(
                    Sequence part, EvalItem(dep, RowView(&b, i)));
                XQTP_RETURN_NOT_OK(mem.Grow(ApproxBytes(part)));
                out.insert(out.end(), part.begin(), part.end());
              }
              return Status::OK();
            }));
        return out;
      }
      case OpKind::kFnCall:
        return EvalFnCall(op, tuple);
      case OpKind::kCompare: {
        XQTP_ASSIGN_OR_RETURN(Sequence l, EvalItem(*op.inputs[0], tuple));
        XQTP_ASSIGN_OR_RETURN(Sequence r, EvalItem(*op.inputs[1], tuple));
        XQTP_ASSIGN_OR_RETURN(bool b, xdm::GeneralCompare(op.cmp_op, l, r));
        return Sequence{Item(b)};
      }
      case OpKind::kArith: {
        XQTP_ASSIGN_OR_RETURN(Sequence l, EvalItem(*op.inputs[0], tuple));
        XQTP_ASSIGN_OR_RETURN(Sequence r, EvalItem(*op.inputs[1], tuple));
        return xdm::EvalArith(op.arith_op, l, r);
      }
      case OpKind::kAnd:
      case OpKind::kOr: {
        XQTP_ASSIGN_OR_RETURN(Sequence l, EvalItem(*op.inputs[0], tuple));
        XQTP_ASSIGN_OR_RETURN(bool lb, xdm::EffectiveBooleanValue(l));
        if (op.kind == OpKind::kAnd && !lb) return Sequence{Item(false)};
        if (op.kind == OpKind::kOr && lb) return Sequence{Item(true)};
        XQTP_ASSIGN_OR_RETURN(Sequence r, EvalItem(*op.inputs[1], tuple));
        XQTP_ASSIGN_OR_RETURN(bool rb, xdm::EffectiveBooleanValue(r));
        return Sequence{Item(rb)};
      }
      case OpKind::kSequence: {
        Sequence out;
        ScopedMemoryCharge mem;
        for (const OpPtr& in : op.inputs) {
          XQTP_ASSIGN_OR_RETURN(Sequence part, EvalItem(*in, tuple));
          XQTP_RETURN_NOT_OK(mem.Grow(ApproxBytes(part)));
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      }
      case OpKind::kIf: {
        XQTP_ASSIGN_OR_RETURN(Sequence c, EvalItem(*op.inputs[0], tuple));
        XQTP_ASSIGN_OR_RETURN(bool cb, xdm::EffectiveBooleanValue(c));
        return EvalItem(*op.inputs[cb ? 1 : 2], tuple);
      }
      case OpKind::kForEach: {
        XQTP_ASSIGN_OR_RETURN(Sequence seq,
                              EvalItem(*op.inputs[0], tuple));
        Sequence out;
        // The FLWOR loop is where cross products materialize: the charge
        // grows with the accumulated output, so a runaway join trips the
        // budget mid-loop instead of after exhausting the heap.
        ScopedMemoryCharge mem;
        for (size_t i = 0; i < seq.size(); ++i) {
          scoped_[op.var] = Sequence{seq[i]};
          if (op.pos_var != core::kNoVar) {
            scoped_[op.pos_var] =
                Sequence{Item(static_cast<int64_t>(i + 1))};
          }
          if (op.dep2 != nullptr) {
            XQTP_ASSIGN_OR_RETURN(Sequence cond,
                                  EvalItem(*op.dep2, tuple));
            XQTP_ASSIGN_OR_RETURN(bool keep,
                                  xdm::EffectiveBooleanValue(cond));
            if (!keep) continue;
          }
          XQTP_ASSIGN_OR_RETURN(Sequence part, EvalItem(*op.dep, tuple));
          XQTP_RETURN_NOT_OK(mem.Grow(ApproxBytes(part)));
          out.insert(out.end(), part.begin(), part.end());
        }
        scoped_.erase(op.var);
        if (op.pos_var != core::kNoVar) scoped_.erase(op.pos_var);
        return out;
      }
      case OpKind::kLetIn: {
        XQTP_ASSIGN_OR_RETURN(Sequence binding,
                              EvalItem(*op.inputs[0], tuple));
        scoped_[op.var] = std::move(binding);
        Result<Sequence> res = EvalItem(*op.dep, tuple);
        scoped_.erase(op.var);
        return res;
      }
      case OpKind::kTypeswitch: {
        XQTP_ASSIGN_OR_RETURN(Sequence input,
                              EvalItem(*op.inputs[0], tuple));
        bool numeric = input.size() == 1 && input[0].IsNumeric();
        core::VarId v = numeric ? op.var : op.pos_var;
        const Op& branch = numeric ? *op.dep : *op.dep2;
        scoped_[v] = std::move(input);
        Result<Sequence> res = EvalItem(branch, tuple);
        scoped_.erase(v);
        return res;
      }
      // Tuple plans are not item plans.
      case OpKind::kMapFromItem:
      case OpKind::kSelect:
      case OpKind::kTupleTreePattern:
      case OpKind::kInputTuple:
        return Status::Internal("tuple plan evaluated in item context");
    }
    return Status::Internal("unreachable operator kind");
  }

  Result<Sequence> EvalFnCall(const Op& op, RowView tuple) {
    XQTP_FAULT_POINT("exec.fn_call");
    std::vector<Sequence> args;
    args.reserve(op.inputs.size());
    for (const OpPtr& in : op.inputs) {
      XQTP_ASSIGN_OR_RETURN(Sequence a, EvalItem(*in, tuple));
      args.push_back(std::move(a));
    }
    return ApplyCoreFn(op.fn, args);
  }

  // ------------------------------------------------------------------
  // Columnar batch pipeline.

  /// Yields one batch downstream: counts it, gives the governor its
  /// per-BATCH poll, and charges the batch's bytes for the duration of
  /// the downstream processing. Empty batches are dropped here so kernels
  /// never see them.
  Status Emit(const BatchSink& sink, TupleBatch&& b) {
    if (b.rows() == 0) return Status::OK();
    CountBatch();
    XQTP_RETURN_NOT_OK(GovernorPoll());
    ScopedMemoryCharge mem;
    XQTP_RETURN_NOT_OK(mem.Grow(b.ApproxBytes()));
    return sink(std::move(b));
  }

  /// Evaluates a tuple plan as a stream of TupleBatches pushed into
  /// `sink` — no whole intermediate tuple sequence is materialized.
  /// `ambient` is the enclosing tuple context for plans rooted at IN
  /// (rule (a) rewrites); inside a batch kernel it is a view of the outer
  /// batch's current row.
  Status EvalTupleBatches(const Op& op, RowView ambient,
                          const BatchSink& sink) {
    switch (op.kind) {
      case OpKind::kInputTuple: {
        if (!ambient.valid()) {
          return Status::Internal("IN (tuple) used outside a tuple context");
        }
        // Batch-backed ambient rows become a shared-column selection of
        // one — the dominant dependent-plan case copies nothing.
        return Emit(sink, ambient.ToBatch());
      }
      case OpKind::kMapFromItem: {
        // MapFromItem{[f : IN]}: each input item is one row's field f, as
        // it is (the one-item invariant, exec/tuple.h). VerifyPlan's
        // [one-item-field] rule rejects any other dependent.
        if (op.dep->kind != OpKind::kInputItem) {
          return Status::Internal(
              "MapFromItem dependent is not IN (item): a tuple field holds "
              "one item");
        }
        XQTP_ASSIGN_OR_RETURN(Sequence items,
                              EvalItem(*op.inputs[0], ambient));
        const size_t target = static_cast<size_t>(BatchRows());
        for (size_t begin = 0; begin < items.size(); begin += target) {
          const size_t end = std::min(items.size(), begin + target);
          TupleColumn col;
          col.field = op.field;
          col.values.assign(
              std::make_move_iterator(items.begin() +
                                      static_cast<ptrdiff_t>(begin)),
              std::make_move_iterator(items.begin() +
                                      static_cast<ptrdiff_t>(end)));
          TupleBatch b(end - begin);
          b.AddOwnedColumn(std::move(col));
          CountTuplesMaterialized(static_cast<int64_t>(end - begin));
          XQTP_RETURN_NOT_OK(Emit(sink, std::move(b)));
        }
        return Status::OK();
      }
      case OpKind::kSelect: {
        return EvalTupleBatches(
            *op.inputs[0], ambient, [&](TupleBatch&& in) -> Status {
              std::vector<uint32_t> keep;
              keep.reserve(in.rows());
              {
                // The lifted state ends with the predicate loop, before
                // the kept rows go downstream.
                LiftScope lifted(&lifts_);
                XQTP_RETURN_NOT_OK(LiftPatterns(*op.dep, in, &lifted));
                for (size_t i = 0; i < in.rows(); ++i) {
                  XQTP_ASSIGN_OR_RETURN(
                      Sequence pred,
                      EvalItem(*op.dep, RowView(&in, i)));
                  XQTP_ASSIGN_OR_RETURN(bool k,
                                        xdm::EffectiveBooleanValue(pred));
                  if (k) keep.push_back(static_cast<uint32_t>(i));
                }
              }
              if (keep.empty()) return Status::OK();
              // All rows kept: forward the batch itself. Otherwise yield
              // a selection view — columns shared, zero items copied.
              if (keep.size() == in.rows()) return Emit(sink, std::move(in));
              return Emit(sink, in.SelectRows(keep));
            });
      }
      case OpKind::kTupleTreePattern:
        return EvalTupleBatches(
            *op.inputs[0], ambient, [&](TupleBatch&& in) -> Status {
              return EvalPatternBatch(op, in, sink);
            });
      default:
        return Status::Internal("item plan evaluated in tuple context");
    }
  }

  /// TupleTreePattern kernel over one input batch. A one-row batch is
  /// one EvalPattern over that row's ContextNode; a wider one is lifted
  /// (EvalPatternLifted). Output rows land in a PatternBatchBuilder
  /// (single-row inputs broadcast their unmodified fields — zero
  /// replication for the dominant root-in-one-tuple plan), one per batch
  /// of at most tuple_batch_rows rows.
  Status EvalPatternBatch(const Op& op, const TupleBatch& in,
                          const BatchSink& sink) {
    if (in.rows() == 0) return Status::OK();
    const TupleBatch::BoundColumn* ctx_col = in.Find(op.tp.input_field);
    if (ctx_col == nullptr) {
      return Status::Internal(
          "TupleTreePattern input tuple lacks the context field");
    }
    ScopedMemoryCharge mem;
    LiftedBindings bound;
    if (in.rows() > 1) {
      XQTP_ASSIGN_OR_RETURN(bound,
                            EvalPatternLifted(op.tp, in, opts_.algo, par()));
      XQTP_RETURN_NOT_OK(mem.Grow(LiftedBytes(bound)));
    } else {
      XQTP_ASSIGN_OR_RETURN(const xml::Node* ctx,
                            ContextNode(in.Value(*ctx_col, 0)));
      XQTP_ASSIGN_OR_RETURN(
          bound.nodes,
          EvalPattern(op.tp, std::span(&ctx, 1), opts_.algo, par()));
      XQTP_RETURN_NOT_OK(mem.Grow(static_cast<int64_t>(
          bound.nodes.size() * sizeof(const xml::Node*))));
      bound.offsets = {0, bound.nodes.size()};
    }
    const size_t target = static_cast<size_t>(BatchRows());
    size_t row = 0;
    for (size_t begin = 0; begin < bound.nodes.size(); begin += target) {
      const size_t end = std::min(bound.nodes.size(), begin + target);
      PatternBatchBuilder builder(in, op.tp.output, end - begin);
      for (size_t k = begin; k < end; ++k) {
        while (bound.offsets[row + 1] <= k) ++row;
        builder.Add(row, bound.nodes[k]);
      }
      XQTP_RETURN_NOT_OK(Emit(sink, builder.Finish()));
    }
    return Status::OK();
  }

  // ------------------------------------------------------------------
  // Loop lifting.

  /// One lifted sub-plan's results over one batch, read by the per-row
  /// walk by (operator, batch, row).
  struct Lift {
    const Op* op;
    const TupleBatch* batch;
    LiftedBindings bindings;
  };

  /// Holds the lifts a batch kernel makes for one batch, and their byte
  /// charge, until the kernel is done with that batch; nothing is carried
  /// to the next batch.
  class LiftScope {
   public:
    explicit LiftScope(std::vector<Lift>* lifts)
        : lifts_(lifts), mark_(lifts->size()) {}
    ~LiftScope() {
      lifts_->erase(lifts_->begin() + static_cast<ptrdiff_t>(mark_),
                    lifts_->end());
    }
    LiftScope(const LiftScope&) = delete;
    LiftScope& operator=(const LiftScope&) = delete;

    ScopedMemoryCharge& mem() { return mem_; }

   private:
    std::vector<Lift>* lifts_;
    size_t mark_;
    ScopedMemoryCharge mem_;
  };

  static int64_t LiftedBytes(const LiftedBindings& l) {
    return static_cast<int64_t>(l.nodes.size() * sizeof(Item) +
                                l.offsets.size() * sizeof(size_t));
  }

  /// Evaluates, over every row of `b` at once, the patterns the lift rule
  /// (CollectLifts) finds in `dep`, which the caller then walks per row
  /// of `b`. A one-row batch lifts nothing: its walk evaluates each
  /// pattern once anyway.
  Status LiftPatterns(const Op& dep, const TupleBatch& b, LiftScope* scope) {
    if (b.rows() < 2) return Status::OK();
    std::vector<const Op*> ops;
    CollectLifts(dep, &ops);
    for (const Op* m : ops) {
      XQTP_ASSIGN_OR_RETURN(
          LiftedBindings l,
          EvalPatternLifted(m->inputs[0]->tp, b, opts_.algo, par()));
      XQTP_RETURN_NOT_OK(scope->mem().Grow(LiftedBytes(l)));
      lifts_.push_back(Lift{m, &b, std::move(l)});
    }
    return Status::OK();
  }

  /// The lifted results of `op` for the batch `tuple` views, or nullptr.
  const LiftedBindings* FindLift(const Op& op, RowView tuple) const {
    for (auto it = lifts_.rbegin(); it != lifts_.rend(); ++it) {
      if (it->op == &op && it->batch == tuple.batch()) return &it->bindings;
    }
    return nullptr;
  }

  int BatchRows() const { return std::max(1, opts_.tuple_batch_rows); }
  const ParallelContext* par() const { return par_ ? &*par_ : nullptr; }

  const core::VarTable& vars_;
  const Bindings& bindings_;
  const EvalOptions& opts_;
  /// Stride counter for the operator-boundary governor check (see
  /// EvalItem); coordinating thread only.
  uint32_t governor_tick_ = 0;
  std::unordered_map<core::VarId, Sequence> scoped_;
  /// Lifted sub-plans of the batch kernels now running, innermost last.
  std::vector<Lift> lifts_;
  /// Parallel-evaluation parameters; empty when opts_.threads resolves
  /// to 1.
  std::optional<ParallelContext> par_;
};

}  // namespace

Result<LiftedBindings> EvalPatternLifted(const pattern::TreePattern& tp,
                                         const TupleBatch& in,
                                         PatternAlgo algo,
                                         const ParallelContext* par) {
  const TupleBatch::BoundColumn* col = in.Find(tp.input_field);
  if (col == nullptr) {
    return Status::Internal(
        "TupleTreePattern input tuple lacks the context field");
  }
  const size_t rows = in.rows();
  GovernorTicker gov;
  ScopedMemoryCharge mem;

  // Every row's context node, in document order. The rows of a batch
  // usually arrive in that order (a pattern's document-ordered output):
  // one pass finds that out, and only a batch out of order is sorted.
  struct Use {
    const xml::Node* node;
    uint32_t row;
  };
  std::vector<Use> uses;
  uses.reserve(rows);
  for (size_t r = 0; r < rows; ++r) {
    XQTP_ASSIGN_OR_RETURN(const xml::Node* node,
                          ContextNode(in.Value(*col, r)));
    uses.push_back({node, static_cast<uint32_t>(r)});
  }
  XQTP_RETURN_NOT_OK(mem.Grow(static_cast<int64_t>(uses.size() * sizeof(Use))));
  const auto doc_order = [](const Use& a, const Use& b) {
    return xml::DocOrderLess(a.node, b.node);
  };
  if (!std::is_sorted(uses.begin(), uses.end(), doc_order)) {
    std::sort(uses.begin(), uses.end(), doc_order);
  }

  // The distinct contexts, each in the first layer whose last context does
  // not contain it. Contexts arrive in document order, so a context
  // outside a layer's last one is outside all of that layer's: no context
  // of a layer lies inside another, and there are never more layers than
  // the contexts nest deep. row_ctx names each row's context.
  std::vector<const xml::Node*> ctx;
  std::vector<uint32_t> layer_of;
  std::vector<const xml::Node*> layer_last;
  std::vector<uint32_t> row_ctx(rows);
  for (const Use& u : uses) {
    if (ctx.empty() || ctx.back() != u.node) {
      size_t k = 0;
      while (k < layer_last.size() && InRegion(layer_last[k], u.node)) ++k;
      if (k == layer_last.size()) {
        layer_last.push_back(u.node);
      } else {
        layer_last[k] = u.node;
      }
      ctx.push_back(u.node);
      layer_of.push_back(static_cast<uint32_t>(k));
    }
    row_ctx[u.row] = static_cast<uint32_t>(ctx.size() - 1);
  }

  // One EvalPattern per layer. Pattern axes only go down or stay put, so
  // each binding lies in exactly one of the layer's disjoint context
  // regions, and each context's bindings are one contiguous run of the
  // document-ordered result.
  struct Run {
    size_t begin = 0;
    size_t end = 0;
  };
  std::vector<const xml::Node*> bound;
  std::vector<Run> runs(ctx.size());
  for (uint32_t layer = 0; layer < layer_last.size(); ++layer) {
    std::vector<uint32_t> members;
    std::vector<const xml::Node*> layer_ctx;
    for (uint32_t id = 0; id < ctx.size(); ++id) {
      if (layer_of[id] != layer) continue;
      members.push_back(id);
      layer_ctx.push_back(ctx[id]);
    }
    XQTP_ASSIGN_OR_RETURN(std::vector<const xml::Node*> found,
                          EvalPattern(tp, layer_ctx, algo, par));
    XQTP_RETURN_NOT_OK(mem.Grow(
        static_cast<int64_t>(found.size() * sizeof(const xml::Node*))));
    size_t m = 0;
    runs[members[0]].begin = bound.size();
    for (const xml::Node* node : found) {
      while (!InRegion(ctx[members[m]], node)) {
        runs[members[m]].end = bound.size();
        if (++m == members.size()) {
          return Status::Internal(
              "lifted pattern bound a node outside its contexts");
        }
        runs[members[m]].begin = bound.size();
      }
      bound.push_back(node);
    }
    runs[members[m]].end = bound.size();
    for (++m; m < members.size(); ++m) {
      runs[members[m]] = Run{bound.size(), bound.size()};
    }
  }

  // A row's bindings are its context's run.
  LiftedBindings out;
  out.offsets.reserve(rows + 1);
  out.offsets.push_back(0);
  for (size_t r = 0; r < rows; ++r) {
    if (!gov.Tick()) return gov.status();
    const Run& run = runs[row_ctx[r]];
    out.nodes.insert(out.nodes.end(),
                     bound.begin() + static_cast<ptrdiff_t>(run.begin),
                     bound.begin() + static_cast<ptrdiff_t>(run.end));
    out.offsets.push_back(out.nodes.size());
  }
  XQTP_RETURN_NOT_OK(
      mem.Grow(static_cast<int64_t>(out.nodes.size() * sizeof(Item))));
  return out;
}

Result<Sequence> Evaluate(const Op& plan, const core::VarTable& vars,
                          const Bindings& bindings, const EvalOptions& opts) {
  XQTP_FAULT_POINT("exec.evaluate");
  if (!opts.HasGovernorLimits()) {
    Evaluator ev(vars, bindings, opts);
    return ev.Run(plan);
  }
  GovernorLimits limits;
  limits.deadline = opts.deadline;
  limits.memory_budget_bytes = opts.memory_budget_bytes;
  limits.cancel_token = opts.cancel_token;
  QueryGovernor governor(limits);
  ScopedGovernor install(&governor);
  Evaluator ev(vars, bindings, opts);
  Result<Sequence> res = ev.Run(plan);
  // Record the governor's telemetry whether the query completed or
  // tripped; worker-morsel checks land here too (the counters are the
  // shared governor's atomics).
  if (ExecStats* s = CurrentExecStats()) {
    s->governor_checks += governor.checks();
    if (governor.peak_bytes() > s->peak_memory_bytes) {
      s->peak_memory_bytes = governor.peak_bytes();
    }
  }
  return res;
}

}  // namespace xqtp::exec
