#include <gtest/gtest.h>

#include "pattern/tree_pattern.h"

namespace xqtp::pattern {
namespace {

class PatternTest : public ::testing::Test {
 protected:
  StringInterner in_;
  Symbol dot_ = in_.Intern("dot");
  Symbol out_ = in_.Intern("out");
  Symbol out2_ = in_.Intern("out2");
  Symbol person_ = in_.Intern("person");
  Symbol name_ = in_.Intern("name");
  Symbol email_ = in_.Intern("emailaddress");
};

TEST_F(PatternTest, SingleStepToString) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendant,
                                  NodeTest::Name(person_), out_);
  EXPECT_EQ(tp.ToString(in_), "IN#dot/descendant::person{out}");
  EXPECT_EQ(tp.StepCount(), 1);
  EXPECT_EQ(tp.output, out_);
}

TEST_F(PatternTest, AppendPathMergesMainPath) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendant,
                                  NodeTest::Name(person_), out_);
  TreePattern suffix =
      MakeSingleStep(out_, Axis::kChild, NodeTest::Name(name_), out2_);
  AppendPath(&tp, std::move(suffix));
  EXPECT_EQ(tp.ToString(in_),
            "IN#dot/descendant::person/child::name{out2}");
  EXPECT_EQ(tp.StepCount(), 2);
  EXPECT_EQ(tp.output, out2_);
}

TEST_F(PatternTest, AttachPredicateClearsPredicateOutputs) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendant,
                                  NodeTest::Name(person_), out_);
  TreePattern pred =
      MakeSingleStep(out_, Axis::kChild, NodeTest::Name(email_), out2_);
  AttachPredicate(&tp, std::move(pred));
  EXPECT_EQ(tp.ToString(in_),
            "IN#dot/descendant::person{out}[child::emailaddress]");
  EXPECT_EQ(tp.output, out_);
  EXPECT_EQ(tp.MaxBranching(), 1);
}

TEST_F(PatternTest, OutputPrintsAfterPositionAndBeforePredicates) {
  Symbol t02 = in_.Intern("t02"), t03 = in_.Intern("t03");
  TreePattern tp =
      MakeSingleStep(dot_, Axis::kChild, NodeTest::Name(t02), out_);
  tp.root->position = 1;
  AttachPredicate(&tp, MakeSingleStep(out_, Axis::kChild, NodeTest::Name(t03),
                                      kInvalidSymbol));
  EXPECT_EQ(tp.ToString(in_), "IN#dot/child::t02[1]{out}[child::t03]");
}

TEST_F(PatternTest, PaperGrammarExample) {
  // IN#x/descendant::a/child::c{y}[attribute::id]/child::d{z}
  Symbol x = in_.Intern("x"), y = in_.Intern("y"), z = in_.Intern("z");
  TreePattern tp = MakeSingleStep(x, Axis::kDescendant,
                                  NodeTest::Name(in_.Intern("a")),
                                  kInvalidSymbol);
  TreePattern c = MakeSingleStep(kInvalidSymbol, Axis::kChild,
                                 NodeTest::Name(in_.Intern("c")), y);
  AppendPath(&tp, std::move(c));
  TreePattern id = MakeSingleStep(kInvalidSymbol, Axis::kAttribute,
                                  NodeTest::Name(in_.Intern("id")),
                                  kInvalidSymbol);
  AttachPredicate(&tp, std::move(id));
  TreePattern d = MakeSingleStep(kInvalidSymbol, Axis::kChild,
                                 NodeTest::Name(in_.Intern("d")), z);
  AppendPath(&tp, std::move(d));
  EXPECT_EQ(
      tp.ToString(in_),
      "IN#x/descendant::a/child::c[attribute::id]/child::d{z}");
  // AppendPath drops the intermediate {y} annotation: the pattern's
  // output is the extraction point's {z}.
  EXPECT_EQ(tp.output, z);
  EXPECT_EQ(tp.StepCount(), 4);
}

TEST_F(PatternTest, CloneAndEqual) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendant,
                                  NodeTest::Name(person_), out_);
  AttachPredicate(&tp, MakeSingleStep(out_, Axis::kChild,
                                      NodeTest::Name(email_),
                                      kInvalidSymbol));
  TreePattern copy = tp.Clone();
  EXPECT_TRUE(Equal(tp, copy));
  copy.root->axis = Axis::kChild;
  EXPECT_FALSE(Equal(tp, copy));
  // Patterns differing only in their output field are not equal.
  TreePattern renamed = tp.Clone();
  renamed.output = out2_;
  EXPECT_FALSE(Equal(tp, renamed));
}

TEST_F(PatternTest, WildcardAndNodeTests) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendantOrSelf,
                                  NodeTest::AnyNode(), kInvalidSymbol);
  TreePattern next =
      MakeSingleStep(kInvalidSymbol, Axis::kChild, NodeTest::AnyName(), out_);
  AppendPath(&tp, std::move(next));
  EXPECT_EQ(tp.ToString(in_),
            "IN#dot/descendant-or-self::node()/child::*{out}");
}

}  // namespace
}  // namespace xqtp::pattern
