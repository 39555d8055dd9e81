#include <gtest/gtest.h>

#include "algebra/compile.h"
#include "algebra/optimize.h"
#include "algebra/printer.h"
#include "core/normalize.h"
#include "core/rewrite.h"
#include "xquery/parser.h"

namespace xqtp::algebra {
namespace {

class OptimizeTest : public ::testing::Test {
 protected:
  std::string Optimized(const std::string& q, bool detect = true) {
    auto surface = xquery::ParseQuery(q, &interner_);
    EXPECT_TRUE(surface.ok()) << surface.status().ToString();
    vars_ = core::VarTable();
    auto c = core::Normalize(**surface, &vars_);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    core::RewriteOptions ropts;
    ropts.verify = true;  // the Core verifier runs even in Release builds
    auto r = core::RewriteToTPNF(std::move(c).value(), &vars_, ropts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    auto plan = Compile(**r, vars_, &interner_);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    plan_ = std::move(plan).value();
    OptimizeOptions opts;
    opts.detect_tree_patterns = detect;
    opts.positional_patterns = false;  // the paper's plan shapes
    opts.verify = true;  // the plan verifier runs even in Release builds
    opts.vars = &vars_;
    Status st = Optimize(&plan_, &interner_, opts);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return ToString(*plan_, vars_, interner_);
  }

  StringInterner interner_;
  core::VarTable vars_;
  OpPtr plan_;
};

TEST_F(OptimizeTest, Q1aReachesP5) {
  // The paper's plan P5: a single TupleTreePattern, no ddo, no TreeJoin.
  EXPECT_EQ(Optimized("$d//person[emailaddress]/name"),
            "MapToItem{IN#out}"
            "(TupleTreePattern[IN#dot/descendant::person"
            "[child::emailaddress]/child::name{out}]"
            "(MapFromItem{[dot : IN]}($d)))");
}

TEST_F(OptimizeTest, Q2KeepsValueSelectBetweenPatterns) {
  std::string p = Optimized("$d//person[name = \"John\"]/emailaddress");
  PlanStats stats = ComputeStats(*plan_);
  EXPECT_EQ(stats.tree_pattern_ops, 3);  // person, name probe, emailaddress
  EXPECT_NE(p.find("Select{MapToItem{IN#out}(TupleTreePattern"
                   "[IN#dot/child::name{out}](IN))=\"John\"}"),
            std::string::npos)
      << p;
  EXPECT_EQ(stats.tree_join_ops, 0);
}

TEST_F(OptimizeTest, Q5StaysTwoCascadedPatterns) {
  // Q5 must NOT merge into one pattern (order semantics differ).
  std::string p = Optimized("for $x in $d//person[emailaddress] return $x/name");
  PlanStats stats = ComputeStats(*plan_);
  EXPECT_EQ(stats.tree_pattern_ops, 2);
  EXPECT_EQ(p.find("descendant::person[child::emailaddress]/child::name"),
            std::string::npos)
      << p;
}

TEST_F(OptimizeTest, ChildOnlyIterationMergesWithoutDdo) {
  // All-child FLWOR: cascade order equals document order, so the merge is
  // allowed even without a surrounding ddo.
  std::string p =
      Optimized("for $x in $input/site/people return $x/person/name");
  PlanStats stats = ComputeStats(*plan_);
  EXPECT_EQ(stats.tree_pattern_ops, 1) << p;
  EXPECT_EQ(stats.max_pattern_steps, 4);
}

TEST_F(OptimizeTest, DetectionCanBeDisabled) {
  std::string p = Optimized("$d//person[emailaddress]/name", false);
  PlanStats stats = ComputeStats(*plan_);
  EXPECT_EQ(stats.tree_pattern_ops, 0);
  EXPECT_EQ(stats.tree_join_ops, 3);
}

TEST_F(OptimizeTest, PositionalQueryKeepsForEachAroundPatterns) {
  std::string p = Optimized("$d//person[1]/name");
  EXPECT_NE(p.find("ForEach"), std::string::npos) << p;
  PlanStats stats = ComputeStats(*plan_);
  EXPECT_GE(stats.tree_pattern_ops, 2);
}

TEST_F(OptimizeTest, BranchyPredicatesBecomePatternBranches) {
  // QE1 from the paper's Figure 5.
  std::string p = Optimized(
      "$input/desc::t01[child::t02[child::t03[child::t04]]]");
  EXPECT_EQ(p,
            "MapToItem{IN#dot}"
            "(TupleTreePattern[IN#dot/descendant::t01{dot}"
            "[child::t02[child::t03[child::t04]]]]"
            "(MapFromItem{[dot : IN]}($input)))");
}

TEST_F(OptimizeTest, QE3DoublePredicateBranch) {
  std::string p = Optimized(
      "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]");
  PlanStats stats = ComputeStats(*plan_);
  EXPECT_EQ(stats.tree_pattern_ops, 1) << p;
  EXPECT_EQ(stats.max_pattern_steps, 5);
}

TEST_F(OptimizeTest, AllQEQueriesBecomeSinglePatterns) {
  const char* queries[] = {
      "$input/desc::t01[child::t02[child::t03[child::t04]]]",
      "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]",
      "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]",
      "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]",
  };
  for (const char* q : queries) {
    Optimized(q);
    PlanStats stats = ComputeStats(*plan_);
    EXPECT_EQ(stats.tree_pattern_ops, 1) << q;
    EXPECT_EQ(stats.tree_join_ops, 0) << q;
  }
}

TEST_F(OptimizeTest, FieldNamesAreCanonical) {
  // Two different syntactic routes to one query end with identical plans,
  // including field names.
  std::string a = Optimized("$d/site/people");
  std::string b = Optimized("for $x in $d/site return $x/people");
  EXPECT_EQ(a, b);
}

TEST_F(OptimizeTest, OptimizeIsIdempotent) {
  std::string once = Optimized("$d//person[emailaddress]/name");
  OpPtr copy = Clone(*plan_);
  OptimizeOptions opts;
  opts.positional_patterns = false;
  opts.verify = true;
  opts.vars = &vars_;
  EXPECT_TRUE(Optimize(&copy, &interner_, opts).ok());
  EXPECT_EQ(ToString(*copy, vars_, interner_), once);
}

}  // namespace
}  // namespace xqtp::algebra
