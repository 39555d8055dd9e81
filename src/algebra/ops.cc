#include "algebra/ops.h"

#include <algorithm>

namespace xqtp::algebra {

bool IsTuplePlan(OpKind kind) {
  switch (kind) {
    case OpKind::kMapFromItem:
    case OpKind::kSelect:
    case OpKind::kTupleTreePattern:
    case OpKind::kInputTuple:
      return true;
    default:
      return false;
  }
}

OpPtr MakeOp(OpKind k) { return std::make_unique<Op>(k); }

OpPtr Clone(const Op& op) {
  OpPtr c = MakeOp(op.kind);
  for (const OpPtr& in : op.inputs) c->inputs.push_back(Clone(*in));
  if (op.dep) c->dep = Clone(*op.dep);
  if (op.dep2) c->dep2 = Clone(*op.dep2);
  c->field = op.field;
  c->tp = op.tp.Clone();
  c->axis = op.axis;
  c->test = op.test;
  c->literal = op.literal;
  c->var = op.var;
  c->pos_var = op.pos_var;
  c->fn = op.fn;
  c->cmp_op = op.cmp_op;
  c->arith_op = op.arith_op;
  return c;
}

namespace {

void Walk(const Op& op, PlanStats* stats) {
  switch (op.kind) {
    case OpKind::kTupleTreePattern:
      ++stats->tree_pattern_ops;
      stats->max_pattern_steps =
          std::max(stats->max_pattern_steps, op.tp.StepCount());
      break;
    case OpKind::kTreeJoin:
      ++stats->tree_join_ops;
      break;
    case OpKind::kMapToItem:
    case OpKind::kMapFromItem:
      ++stats->map_ops;
      break;
    case OpKind::kForEach:
    case OpKind::kLetIn:
      ++stats->scoped_ops;
      break;
    case OpKind::kDdo:
      ++stats->ddo_ops;
      break;
    default:
      break;
  }
  for (const OpPtr& in : op.inputs) Walk(*in, stats);
  if (op.dep) Walk(*op.dep, stats);
  if (op.dep2) Walk(*op.dep2, stats);
}

}  // namespace

PlanStats ComputeStats(const Op& plan) {
  PlanStats stats;
  Walk(plan, &stats);
  return stats;
}

}  // namespace xqtp::algebra
