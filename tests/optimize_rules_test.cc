// Rule-level unit tests for the algebraic optimizer: each of the paper's
// Figure 3 rewrites is exercised in isolation on a hand-built plan.
#include <gtest/gtest.h>

#include "algebra/optimize.h"
#include "algebra/printer.h"
#include "core/ast.h"

namespace xqtp::algebra {
namespace {

class OptimizeRulesTest : public ::testing::Test {
 protected:
  Symbol Sym(const char* s) { return interner_.Intern(s); }

  OpPtr GlobalVar(const char* name) {
    OpPtr op = MakeOp(OpKind::kGlobalVar);
    op->var = vars_.Global(name);
    return op;
  }
  OpPtr FieldAccess(const char* f) {
    OpPtr op = MakeOp(OpKind::kFieldAccess);
    op->field = Sym(f);
    return op;
  }
  OpPtr TreeJoin(Axis axis, const char* tag, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kTreeJoin);
    op->axis = axis;
    op->test = NodeTest::Name(Sym(tag));
    op->inputs.push_back(std::move(input));
    return op;
  }
  OpPtr MapFromItem(const char* field, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kMapFromItem);
    op->field = Sym(field);
    op->dep = MakeOp(OpKind::kInputItem);
    op->inputs.push_back(std::move(input));
    return op;
  }
  OpPtr MapToItem(OpPtr dep, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kMapToItem);
    op->dep = std::move(dep);
    op->inputs.push_back(std::move(input));
    return op;
  }
  OpPtr Ddo(OpPtr input) {
    OpPtr op = MakeOp(OpKind::kDdo);
    op->inputs.push_back(std::move(input));
    return op;
  }
  OpPtr BoolFn(OpPtr input) {
    OpPtr op = MakeOp(OpKind::kFnCall);
    op->fn = core::CoreFn::kBoolean;
    op->inputs.push_back(std::move(input));
    return op;
  }
  OpPtr Select(OpPtr pred, OpPtr input) {
    OpPtr op = MakeOp(OpKind::kSelect);
    op->dep = std::move(pred);
    op->inputs.push_back(std::move(input));
    return op;
  }

  std::string Optimized(OpPtr plan) {
    OptimizeOptions opts;
    opts.positional_patterns = false;  // the paper's rules (a)-(f) only
    opts.verify = true;  // the plan verifier runs even in Release builds
    opts.vars = &vars_;
    Status st = Optimize(&plan, &interner_, opts);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return ToString(*plan, vars_, interner_);
  }

  StringInterner interner_;
  core::VarTable vars_;
};

TEST_F(OptimizeRulesTest, RuleBMapToItemOverTreeJoin) {
  // MapToItem{TreeJoin[child::a](IN#dot)}(MapFromItem{[dot : IN]}($d))
  OpPtr plan = MapToItem(TreeJoin(Axis::kChild, "a", FieldAccess("dot")),
                         MapFromItem("dot", GlobalVar("d")));
  EXPECT_EQ(Optimized(std::move(plan)),
            "MapToItem{IN#out}"
            "(TupleTreePattern[IN#dot/child::a{out}]"
            "(MapFromItem{[dot : IN]}($d)))");
}

TEST_F(OptimizeRulesTest, RuleAInsidePredicate) {
  // Select{fn:boolean(TreeJoin[child::b](IN#dot))}(...) -> rule (a) then
  // rule (e) folds the predicate into the pattern.
  OpPtr inner = MapToItem(TreeJoin(Axis::kDescendant, "a", FieldAccess("dot")),
                          MapFromItem("dot", GlobalVar("d")));
  // Build Select over the would-be TTP: compose Select after the pattern
  // forms, by optimizing a full P1-style plan instead.
  OpPtr select =
      Select(BoolFn(TreeJoin(Axis::kChild, "b", FieldAccess("dot"))),
             MapFromItem("dot", std::move(inner)));
  OpPtr plan = Ddo(MapToItem(FieldAccess("dot"), std::move(select)));
  std::string s = Optimized(std::move(plan));
  EXPECT_NE(s.find("descendant::a{dot}[child::b]"), std::string::npos) << s;
  EXPECT_EQ(s.find("Select"), std::string::npos) << s;
  EXPECT_EQ(s.find("TreeJoin"), std::string::npos) << s;
}

TEST_F(OptimizeRulesTest, RuleDMergesAdjacentPatterns) {
  // ddo(MapToItem{TJ[child::b]}(MapFromItem(MapToItem{TJ[desc::a]}(...))))
  OpPtr lower = MapToItem(TreeJoin(Axis::kDescendant, "a", FieldAccess("dot")),
                          MapFromItem("dot", GlobalVar("d")));
  OpPtr upper = MapToItem(TreeJoin(Axis::kChild, "b", FieldAccess("dot")),
                          MapFromItem("dot", std::move(lower)));
  std::string s = Optimized(Ddo(std::move(upper)));
  EXPECT_EQ(s,
            "MapToItem{IN#out}"
            "(TupleTreePattern[IN#dot/descendant::a/child::b{out}]"
            "(MapFromItem{[dot : IN]}($d)))");
}

TEST_F(OptimizeRulesTest, RuleDGuardBlocksWithoutDdo) {
  // The same plan WITHOUT the surrounding ddo must keep two patterns
  // (descendant bindings are related; merging would change the order).
  OpPtr lower = MapToItem(TreeJoin(Axis::kDescendant, "a", FieldAccess("dot")),
                          MapFromItem("dot", GlobalVar("d")));
  OpPtr upper = MapToItem(TreeJoin(Axis::kChild, "b", FieldAccess("dot")),
                          MapFromItem("dot", std::move(lower)));
  std::string s = Optimized(std::move(upper));
  EXPECT_EQ(s.find("descendant::a/child::b"), std::string::npos) << s;
  // Two stacked patterns instead.
  EXPECT_NE(s.find("TupleTreePattern[IN#dot/child::b"), std::string::npos)
      << s;
  EXPECT_NE(s.find("TupleTreePattern[IN#dot/descendant::a{dot}]"),
            std::string::npos)
      << s;
}

TEST_F(OptimizeRulesTest, RuleDMergesChildChainsWithoutDdo) {
  // Child-only chains merge even without ddo (unrelated bindings).
  OpPtr lower = MapToItem(TreeJoin(Axis::kChild, "a", FieldAccess("dot")),
                          MapFromItem("dot", GlobalVar("d")));
  OpPtr upper = MapToItem(TreeJoin(Axis::kChild, "b", FieldAccess("dot")),
                          MapFromItem("dot", std::move(lower)));
  std::string s = Optimized(std::move(upper));
  EXPECT_NE(s.find("child::a/child::b{out}"), std::string::npos) << s;
}

TEST_F(OptimizeRulesTest, RuleFDropsDdoOnSingletonInput) {
  OpPtr plan = Ddo(MapToItem(TreeJoin(Axis::kDescendant, "a",
                                      FieldAccess("dot")),
                             MapFromItem("dot", GlobalVar("d"))));
  std::string s = Optimized(std::move(plan));
  EXPECT_EQ(s.rfind("fs:ddo", 0), std::string::npos) << s;
}

TEST_F(OptimizeRulesTest, DetectionOffLeavesPlanAlone) {
  OpPtr plan = MapToItem(TreeJoin(Axis::kChild, "a", FieldAccess("dot")),
                         MapFromItem("dot", GlobalVar("d")));
  std::string before = ToString(*plan, vars_, interner_);
  OptimizeOptions opts;
  opts.detect_tree_patterns = false;
  ASSERT_TRUE(Optimize(&plan, &interner_, opts).ok());
  EXPECT_EQ(ToString(*plan, vars_, interner_), before);
}

TEST_F(OptimizeRulesTest, NonPatternAxisIsNotLifted) {
  // parent:: steps never become patterns.
  OpPtr plan = MapToItem(TreeJoin(Axis::kParent, "a", FieldAccess("dot")),
                         MapFromItem("dot", GlobalVar("d")));
  std::string s = Optimized(std::move(plan));
  EXPECT_NE(s.find("TreeJoin[parent::a]"), std::string::npos) << s;
  EXPECT_EQ(s.find("TupleTreePattern"), std::string::npos) << s;
}

}  // namespace
}  // namespace xqtp::algebra
