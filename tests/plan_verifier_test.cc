// The analysis subsystem against deliberately corrupted trees: every
// invariant of the Core and plan verifiers must fire on a hand-built
// violation and stay silent on the legal variant it was derived from.
#include <gtest/gtest.h>

#include "algebra/ops.h"
#include "analysis/core_verifier.h"
#include "analysis/plan_verifier.h"
#include "analysis/verify_scope.h"
#include "core/ast.h"
#include "engine/engine.h"
#include "exec/evaluator.h"
#include "pattern/tree_pattern.h"
#include "xml/parser.h"

namespace xqtp {
namespace {

using algebra::MakeOp;
using algebra::Op;
using algebra::OpKind;
using algebra::OpPtr;
using pattern::TreePattern;

void ExpectViolation(const Status& st, const char* invariant) {
  ASSERT_FALSE(st.ok()) << "expected a [" << invariant << "] violation";
  EXPECT_EQ(st.code(), StatusCode::kInternal) << st.ToString();
  EXPECT_NE(st.message().find(std::string("[") + invariant + "]"),
            std::string::npos)
      << st.message();
}

// ---- plan verifier ---------------------------------------------------------

class PlanVerifierTest : public ::testing::Test {
 protected:
  PlanVerifierTest() {
    d_ = vars_.Global("d");
    dot_ = interner_.Intern("dot");
    out_ = interner_.Intern("out");
    a_ = interner_.Intern("a");
  }

  analysis::PlanVerifyOptions Opts() {
    analysis::PlanVerifyOptions opts;
    opts.vars = &vars_;
    opts.interner = &interner_;
    return opts;
  }

  OpPtr Global() {
    OpPtr op = MakeOp(OpKind::kGlobalVar);
    op->var = d_;
    return op;
  }

  /// MapFromItem{[field : IN]}(input) — one tuple per input item.
  OpPtr FromItem(Symbol field, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kMapFromItem);
    op->field = field;
    op->inputs.push_back(std::move(input));
    op->dep = MakeOp(OpKind::kInputItem);
    return op;
  }

  OpPtr ToItem(OpPtr input, OpPtr dep) {
    OpPtr op = MakeOp(OpKind::kMapToItem);
    op->inputs.push_back(std::move(input));
    op->dep = std::move(dep);
    return op;
  }

  OpPtr FieldAcc(Symbol field) {
    OpPtr op = MakeOp(OpKind::kFieldAccess);
    op->field = field;
    return op;
  }

  OpPtr Ttp(TreePattern tp, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kTupleTreePattern);
    op->tp = std::move(tp);
    op->inputs.push_back(std::move(input));
    return op;
  }

  /// MapToItem{IN#out}(TTP[IN#dot/child::a{out}](MapFromItem{[dot : IN]}($d)))
  /// — the shape the optimizer produces for "$d/a".
  OpPtr LegalPlan() {
    TreePattern tp = pattern::MakeSingleStep(dot_, Axis::kChild,
                                             NodeTest::Name(a_), out_);
    return ToItem(Ttp(std::move(tp), FromItem(dot_, Global())),
                  FieldAcc(out_));
  }

  /// LegalPlan with MapFromItem{[dot : IN/child::a]} in place of
  /// MapFromItem{[dot : IN]}.
  OpPtr ChildStepDependentPlan() {
    OpPtr step = MakeOp(OpKind::kTreeJoin);
    step->axis = Axis::kChild;
    step->test = NodeTest::Name(a_);
    step->inputs.push_back(MakeOp(OpKind::kInputItem));
    OpPtr plan = LegalPlan();
    plan->inputs[0]->inputs[0]->dep = std::move(step);
    return plan;
  }

  core::VarTable vars_;
  StringInterner interner_;
  core::VarId d_;
  Symbol dot_, out_, a_;
};

TEST_F(PlanVerifierTest, LegalPlanPasses) {
  OpPtr plan = LegalPlan();
  EXPECT_TRUE(analysis::VerifyPlan(*plan, Opts()).ok());
}

TEST_F(PlanVerifierTest, ReadOfUnproducedField) {
  // The extraction reads IN#bogus, but upstream only produces dot/out.
  OpPtr plan = LegalPlan();
  plan->dep->field = interner_.Intern("bogus");
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "field-def-use");
}

TEST_F(PlanVerifierTest, PatternContextFieldUnproduced) {
  // The pattern navigates from IN#bogus, a field no operator defines.
  OpPtr plan = LegalPlan();
  plan->inputs[0]->tp.input_field = interner_.Intern("bogus");
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "field-def-use");
}

TEST_F(PlanVerifierTest, NoOutputAtAll) {
  OpPtr plan = LegalPlan();
  plan->inputs[0]->tp.output = kInvalidSymbol;
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "single-output");
}

TEST_F(PlanVerifierTest, UpwardAxisInPattern) {
  // parent:: is navigationally fine but outside the pattern grammar.
  OpPtr plan = LegalPlan();
  plan->inputs[0]->tp.root->axis = Axis::kParent;
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "pattern-axis");
}

// The same plan in a build that does not verify plans: exec::Evaluate
// returns Internal under every algorithm and thread count, on a one-row
// batch and on a lifted two-row one. No fallback evaluates the step.
TEST_F(PlanVerifierTest, UpwardAxisInPatternIsInternalWhenEvaluated) {
  auto doc = xml::Parse("<r><a><b/></a><a><b/></a></r>", &interner_);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& bs = (*doc)->ElementsByTag(interner_.Intern("b"));
  ASSERT_EQ(bs.size(), 2u);
  OpPtr plan = LegalPlan();
  plan->inputs[0]->tp.root->axis = Axis::kParent;
  for (const xdm::Sequence& d :
       {xdm::Sequence{xdm::Item(bs[0])},
        xdm::Sequence{xdm::Item(bs[0]), xdm::Item(bs[1])}}) {
    const exec::Bindings bindings{{d_, d}};
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
          exec::PatternAlgo::kTwig, exec::PatternAlgo::kCostBased}) {
      for (int threads : {1, 2}) {
        exec::EvalOptions opts;
        opts.algo = algo;
        opts.threads = threads;
        opts.parallel_min_fanout = 2;
        auto res = exec::Evaluate(*plan, vars_, bindings, opts);
        const std::string what = std::string(exec::PatternAlgoName(algo)) +
                                 " t" + std::to_string(threads) + ", " +
                                 std::to_string(d.size()) + " context rows";
        ASSERT_FALSE(res.ok()) << what;
        EXPECT_EQ(res.status().code(), StatusCode::kInternal) << what;
      }
    }
  }
}

TEST_F(PlanVerifierTest, MapFromItemDependentOtherThanInputItem) {
  // MapFromItem{[dot : IN/child::a]}: the field would hold any number of
  // items per input item.
  OpPtr plan = ChildStepDependentPlan();
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "one-item-field");
  // An atomic dependent breaks the same rule.
  plan->inputs[0]->inputs[0]->dep = MakeOp(OpKind::kConst);
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "one-item-field");
}

// The same plan in a build that does not verify plans: exec::Evaluate
// returns Internal under every algorithm and thread count, for one input
// item and for two. No branch evaluates the dependent.
TEST_F(PlanVerifierTest, MapFromItemDependentIsInternalWhenEvaluated) {
  auto doc = xml::Parse("<r><a><a/></a><a><a/></a></r>", &interner_);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto& as = (*doc)->ElementsByTag(a_);
  ASSERT_EQ(as.size(), 4u);
  OpPtr plan = ChildStepDependentPlan();
  for (const xdm::Sequence& d :
       {xdm::Sequence{xdm::Item(as[0])},
        xdm::Sequence{xdm::Item(as[0]), xdm::Item(as[2])}}) {
    const exec::Bindings bindings{{d_, d}};
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
          exec::PatternAlgo::kTwig, exec::PatternAlgo::kCostBased}) {
      for (int threads : {1, 2}) {
        exec::EvalOptions opts;
        opts.algo = algo;
        opts.threads = threads;
        opts.parallel_min_fanout = 2;
        auto res = exec::Evaluate(*plan, vars_, bindings, opts);
        const std::string what = std::string(exec::PatternAlgoName(algo)) +
                                 " t" + std::to_string(threads) + ", " +
                                 std::to_string(d.size()) + " input items";
        ASSERT_FALSE(res.ok()) << what;
        EXPECT_EQ(res.status().code(), StatusCode::kInternal) << what;
      }
    }
  }
}

TEST_F(PlanVerifierTest, NameTestWithoutName) {
  OpPtr plan = LegalPlan();
  plan->inputs[0]->tp.root->test = NodeTest{NodeTestKind::kName,
                                            kInvalidSymbol};
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "pattern-test");
}

TEST_F(PlanVerifierTest, PatternWithoutSteps) {
  OpPtr plan = LegalPlan();
  plan->inputs[0]->tp.root.reset();
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "pattern-root");
}

TEST_F(PlanVerifierTest, TuplePlanAtRoot) {
  OpPtr plan = FromItem(dot_, Global());
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "plan-sort");
}

TEST_F(PlanVerifierTest, ItemPlanWhereTupleExpected) {
  // MapToItem over a bare GlobalVar: the input edge carries the wrong sort.
  OpPtr plan = ToItem(Global(), FieldAcc(out_));
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "plan-sort");
}

TEST_F(PlanVerifierTest, InputTupleOutsideDependentContext) {
  // IN (tuple) at the top level: there is no ambient tuple to read.
  OpPtr plan = ToItem(MakeOp(OpKind::kInputTuple), FieldAcc(out_));
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "tuple-context");
}

TEST_F(PlanVerifierTest, FieldAccessOutsideTupleContext) {
  OpPtr plan = FieldAcc(out_);
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "tuple-context");
}

TEST_F(PlanVerifierTest, InputItemOutsideMapFromItem) {
  // MapToItem dependents see the current tuple, never a current item.
  OpPtr plan = ToItem(FromItem(dot_, Global()), MakeOp(OpKind::kInputItem));
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "item-context");
}

TEST_F(PlanVerifierTest, UnboundScopedVar) {
  OpPtr plan = MakeOp(OpKind::kScopedVar);
  plan->var = vars_.Fresh("x");
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "scoped-var-scope");
}

TEST_F(PlanVerifierTest, GlobalVarReferencingLocal) {
  OpPtr plan = MakeOp(OpKind::kGlobalVar);
  plan->var = vars_.Fresh("x");  // registered, but not a global
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "global-var");
}

TEST_F(PlanVerifierTest, FnArityMismatch) {
  OpPtr plan = MakeOp(OpKind::kFnCall);
  plan->fn = core::CoreFn::kBoolean;
  plan->inputs.push_back(Global());
  plan->inputs.push_back(Global());
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "fn-arity");
}

TEST_F(PlanVerifierTest, IfWithTwoInputs) {
  OpPtr plan = MakeOp(OpKind::kIf);
  plan->inputs.push_back(Global());
  plan->inputs.push_back(Global());
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "op-arity");
}

TEST_F(PlanVerifierTest, SelectWithoutPredicate) {
  OpPtr select = MakeOp(OpKind::kSelect);
  select->inputs.push_back(FromItem(dot_, Global()));
  OpPtr plan = ToItem(std::move(select), FieldAcc(dot_));
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "dep-plan");
}

TEST_F(PlanVerifierTest, MapFromItemWithoutField) {
  OpPtr plan = LegalPlan();
  plan->inputs[0]->inputs[0]->field = kInvalidSymbol;
  ExpectViolation(analysis::VerifyPlan(*plan, Opts()), "invalid-field");
}

TEST_F(PlanVerifierTest, ViolationIsAttributedToTheActiveScope) {
  OpPtr plan = LegalPlan();
  plan->dep->field = interner_.Intern("bogus");
  analysis::VerifyScope::ClearFiredTrail();
  Status st;
  {
    analysis::VerifyScope scope("optimize rule (test)");
    scope.MarkFired();
    st = analysis::VerifyPlan(*plan, Opts());
  }
  ExpectViolation(st, "field-def-use");
  EXPECT_NE(st.message().find("[in optimize rule (test)]"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("[after: optimize rule (test)]"),
            std::string::npos)
      << st.message();
  analysis::VerifyScope::ClearFiredTrail();
}

TEST_F(PlanVerifierTest, SuccessfulCheckpointClearsTheTrail) {
  OpPtr plan = LegalPlan();
  {
    analysis::VerifyScope scope("optimize rule (test)");
    scope.MarkFired();
    EXPECT_TRUE(analysis::VerifyPlan(*plan, Opts()).ok());
  }
  EXPECT_EQ(analysis::VerifyScope::FiredTrail(), "");
}

// ---- core verifier ---------------------------------------------------------

class CoreVerifierTest : public ::testing::Test {
 protected:
  CoreVerifierTest() { d_ = vars_.Global("d"); }

  core::VarTable vars_;
  core::VarId d_;
};

TEST_F(CoreVerifierTest, LegalExpressionPasses) {
  core::VarId x = vars_.Fresh("x");
  core::CoreExprPtr e = core::MakeFor(
      x, core::kNoVar, core::MakeStep(d_, Axis::kDescendant, NodeTest::AnyName()),
      nullptr, core::MakeStep(x, Axis::kChild, NodeTest::AnyName()));
  EXPECT_TRUE(analysis::VerifyCore(*e, vars_).ok());
}

TEST_F(CoreVerifierTest, UnboundVariable) {
  core::VarId x = vars_.Fresh("x");  // registered but never bound
  core::CoreExprPtr e = core::MakeVar(x);
  ExpectViolation(analysis::VerifyCore(*e, vars_), "def-before-use");
}

TEST_F(CoreVerifierTest, UnregisteredVariable) {
  core::CoreExprPtr e = core::MakeVar(999);
  ExpectViolation(analysis::VerifyCore(*e, vars_), "var-range");
}

TEST_F(CoreVerifierTest, PositionalVariableOutsideItsBinder) {
  // let $y := (for $x at $p in $d return $x) return $p — $p escapes.
  core::VarId x = vars_.Fresh("x");
  core::VarId p = vars_.Fresh("p");
  core::VarId y = vars_.Fresh("y");
  core::CoreExprPtr loop = core::MakeFor(x, p, core::MakeVar(d_), nullptr,
                                         core::MakeVar(x));
  core::CoreExprPtr e =
      core::MakeLet(y, std::move(loop), core::MakeVar(p));
  ExpectViolation(analysis::VerifyCore(*e, vars_), "def-before-use");
}

TEST_F(CoreVerifierTest, DuplicateBinder) {
  core::VarId x = vars_.Fresh("x");
  core::CoreExprPtr e = core::MakeLet(
      x, core::MakeEmpty(),
      core::MakeLet(x, core::MakeEmpty(), core::MakeVar(x)));
  ExpectViolation(analysis::VerifyCore(*e, vars_), "duplicate-binder");
}

TEST_F(CoreVerifierTest, BinderRebindsAGlobal) {
  core::CoreExprPtr e =
      core::MakeLet(d_, core::MakeEmpty(), core::MakeVar(d_));
  ExpectViolation(analysis::VerifyCore(*e, vars_), "binder-is-global");
}

TEST_F(CoreVerifierTest, PositionalBinderSameAsLoopVariable) {
  core::VarId x = vars_.Fresh("x");
  core::CoreExprPtr e =
      core::MakeFor(x, x, core::MakeVar(d_), nullptr, core::MakeVar(x));
  ExpectViolation(analysis::VerifyCore(*e, vars_), "positional-binder");
}

TEST_F(CoreVerifierTest, WhereClauseOnANonLoop) {
  core::CoreExprPtr e = core::MakeEmpty();
  e->where = core::MakeEmpty();
  ExpectViolation(analysis::VerifyCore(*e, vars_), "core-arity");
}

TEST_F(CoreVerifierTest, LetWithOneChild) {
  core::VarId x = vars_.Fresh("x");
  auto e = std::make_unique<core::CoreExpr>(core::CoreKind::kLet);
  e->var = x;
  e->children.push_back(core::MakeEmpty());
  ExpectViolation(analysis::VerifyCore(*e, vars_), "core-arity");
}

TEST_F(CoreVerifierTest, CoreFnArityMismatch) {
  std::vector<core::CoreExprPtr> args;
  args.push_back(core::MakeVar(d_));
  args.push_back(core::MakeVar(d_));
  core::CoreExprPtr e = core::MakeFnCall(core::CoreFn::kNot, std::move(args));
  ExpectViolation(analysis::VerifyCore(*e, vars_), "fn-arity");
}

// ---- engine integration ----------------------------------------------------

TEST(EngineVerifyTest, VerifiedCompilationSucceedsOnRealQueries) {
  engine::EngineOptions eopts;
  eopts.verify_plans = true;
  engine::Engine e(eopts);
  const char* queries[] = {
      "$d//person[emailaddress]/name",
      "for $p in $d//person where $p/age return $p/name",
      "fn:count($d//a[b][c])",
  };
  for (const char* q : queries) {
    auto cq = e.Compile(q);
    EXPECT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
  }
}

}  // namespace
}  // namespace xqtp
