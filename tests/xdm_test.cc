#include <gtest/gtest.h>

#include "xdm/sequence_ops.h"
#include "xml/parser.h"

namespace xqtp::xdm {
namespace {

class XdmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto res = xml::Parse(
        "<a><b1><c/></b1><b2 id=\"7\">42</b2><b1><c/><c/></b1></a>",
        &interner_);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    doc_ = std::move(res).value();
  }

  const xml::Node* Root() const { return doc_->root()->first_child; }

  StringInterner interner_;
  std::unique_ptr<xml::Document> doc_;
};

TEST_F(XdmTest, DistinctDocOrderSortsAndDedupes) {
  const xml::Node* a = Root();
  const xml::Node* b1 = a->first_child;
  const xml::Node* b2 = b1->next_sibling;
  Sequence seq{Item(b2), Item(b1), Item(b2), Item(a)};
  auto res = DistinctDocOrder(std::move(seq));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 3u);
  EXPECT_EQ((*res)[0].node(), a);
  EXPECT_EQ((*res)[1].node(), b1);
  EXPECT_EQ((*res)[2].node(), b2);
  EXPECT_TRUE(IsDistinctDocOrdered(*res));
}

TEST_F(XdmTest, DistinctDocOrderAtomicSequences) {
  // Pure atomic sequences pass through unchanged (XQuery path semantics
  // for paths ending in an atomizing step)...
  Sequence atomics{Item(static_cast<int64_t>(2)), Item(static_cast<int64_t>(1))};
  auto res = DistinctDocOrder(std::move(atomics));
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 2u);
  EXPECT_EQ((*res)[0].integer(), 2);
  // ...but mixing nodes and atomics is a type error.
  Sequence mixed{Item(static_cast<int64_t>(1)), Item(Root())};
  EXPECT_FALSE(DistinctDocOrder(std::move(mixed)).ok());
}

TEST_F(XdmTest, EffectiveBooleanValue) {
  EXPECT_FALSE(EffectiveBooleanValue({}).value());
  EXPECT_TRUE(EffectiveBooleanValue({Item(Root())}).value());
  EXPECT_FALSE(EffectiveBooleanValue({Item(false)}).value());
  EXPECT_TRUE(EffectiveBooleanValue({Item(static_cast<int64_t>(3))}).value());
  EXPECT_FALSE(EffectiveBooleanValue({Item(std::string())}).value());
  EXPECT_TRUE(EffectiveBooleanValue({Item(std::string("x"))}).value());
  // Multi-item atomic sequence: type error.
  EXPECT_FALSE(
      EffectiveBooleanValue({Item(true), Item(false)}).ok());
}

TEST_F(XdmTest, GeneralCompareExistential) {
  const xml::Node* a = Root();
  const xml::Node* b2 = a->first_child->next_sibling;
  // b2 string-value is "42": numeric coercion against a number.
  Sequence nodes{Item(b2)};
  Sequence num{Item(static_cast<int64_t>(42))};
  EXPECT_TRUE(GeneralCompare(CompareOp::kEq, nodes, num).value());
  EXPECT_FALSE(GeneralCompare(CompareOp::kNe, nodes, num).value());
  EXPECT_TRUE(GeneralCompare(CompareOp::kGe, nodes, num).value());
  // String comparison.
  Sequence s{Item(std::string("42"))};
  EXPECT_TRUE(GeneralCompare(CompareOp::kEq, nodes, s).value());
  // Existential semantics: any pair matching suffices.
  Sequence many{Item(std::string("1")), Item(std::string("42"))};
  EXPECT_TRUE(GeneralCompare(CompareOp::kEq, many, s).value());
  // Empty operand: always false.
  EXPECT_FALSE(GeneralCompare(CompareOp::kEq, {}, s).value());
}

TEST_F(XdmTest, AxisSteps) {
  const xml::Node* a = Root();
  Symbol b1 = interner_.Lookup("b1");
  Symbol c = interner_.Lookup("c");

  Sequence out;
  EvalAxisStep(a, Axis::kChild, NodeTest::Name(b1), &out);
  EXPECT_EQ(out.size(), 2u);

  out.clear();
  EvalAxisStep(a, Axis::kDescendant, NodeTest::Name(c), &out);
  EXPECT_EQ(out.size(), 3u);

  out.clear();
  EvalAxisStep(a, Axis::kDescendantOrSelf, NodeTest::AnyNode(), &out);
  // self + 6 descendant elements + 1 text node = 8
  EXPECT_EQ(out.size(), 8u);

  out.clear();
  const xml::Node* b2 = a->first_child->next_sibling;
  EvalAxisStep(b2, Axis::kAttribute, NodeTest::Name(interner_.Lookup("id")),
               &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node()->Text(), "7");

  out.clear();
  EvalAxisStep(b2, Axis::kParent, NodeTest::AnyName(), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].node(), a);

  out.clear();
  EvalAxisStep(b2, Axis::kSelf, NodeTest::Name(b1), &out);
  EXPECT_TRUE(out.empty());
}

TEST_F(XdmTest, AxisStepsReturnDocOrder) {
  const xml::Node* a = Root();
  Sequence out;
  EvalAxisStep(a, Axis::kDescendant, NodeTest::AnyName(), &out);
  EXPECT_TRUE(IsDistinctDocOrdered(out));
}

TEST_F(XdmTest, ItemStringValue) {
  EXPECT_EQ(Item(static_cast<int64_t>(5)).StringValue(), "5");
  EXPECT_EQ(Item(2.5).StringValue(), "2.5");
  EXPECT_EQ(Item(2.0).StringValue(), "2");
  EXPECT_EQ(Item(true).StringValue(), "true");
  EXPECT_EQ(Item(std::string("s")).StringValue(), "s");
}

}  // namespace
}  // namespace xqtp::xdm
