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
  EXPECT_TRUE(tp.SingleOutputAtExtractionPoint());
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
  std::vector<Symbol> outs = tp.OutputFields();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], out2_);
}

TEST_F(PatternTest, AttachPredicateClearsPredicateOutputs) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendant,
                                  NodeTest::Name(person_), out_);
  TreePattern pred =
      MakeSingleStep(out_, Axis::kChild, NodeTest::Name(email_), out2_);
  AttachPredicate(&tp, std::move(pred));
  EXPECT_EQ(tp.ToString(in_),
            "IN#dot/descendant::person{out}[child::emailaddress]");
  EXPECT_TRUE(tp.SingleOutputAtExtractionPoint());
  EXPECT_EQ(tp.MaxBranching(), 1);
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
  // After AppendPath the intermediate {y} annotation is cleared, so the
  // pattern has a single output at the extraction point.
  EXPECT_TRUE(tp.SingleOutputAtExtractionPoint());
  EXPECT_EQ(tp.StepCount(), 4);
}

TEST_F(PatternTest, RenameOutput) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kChild,
                                  NodeTest::Name(name_), out_);
  EXPECT_TRUE(RenameOutput(&tp, out_, out2_));
  EXPECT_EQ(tp.OutputFields()[0], out2_);
  EXPECT_FALSE(RenameOutput(&tp, out_, out2_));  // out_ no longer present
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
