// Tests for the staircase region scan (exec::ScanRegions in
// exec/pattern_eval.h) — the one index-scan primitive behind the
// staircase join, the twig join and the parallel driver's root-step
// expansion: pruning, skipping, the per-axis filters, its work counters
// and its governor polls.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exec/exec_stats.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "xml/parser.h"

namespace xqtp::exec {
namespace {

using NodeVec = std::vector<const xml::Node*>;

class ScanRegionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    //       r
    //  a1   b       c    a5
    //     a2 a3     a4
    auto res =
        xml::Parse("<r><a/><b><a/><a/></b><c><a/></c><a/></r>", &interner_);
    ASSERT_TRUE(res.ok());
    doc_ = std::move(res).value();
    a_ = NodeTest::Name(interner_.Intern("a"));
    r_ = doc_->root()->first_child;
    const NodeVec& as = doc_->ElementsByTag(a_.name);
    ASSERT_EQ(as.size(), 5u);
    a1_ = as[0];
    a2_ = as[1];
    a3_ = as[2];
    a4_ = as[3];
    a5_ = as[4];
    b_ = a1_->next_sibling;
    c_ = b_->next_sibling;
  }

  NodeVec Scan(const NodeVec& stream, const NodeVec& ctx, Axis axis,
               const NodeTest& test) {
    GovernorTicker gov;
    return ScanRegions(stream, ctx, axis, test, &gov);
  }

  const NodeVec& AStream() const { return doc_->ElementsByTag(a_.name); }

  StringInterner interner_;
  std::unique_ptr<xml::Document> doc_;
  NodeTest a_;
  const xml::Node* r_ = nullptr;
  const xml::Node* a1_ = nullptr;
  const xml::Node* a2_ = nullptr;
  const xml::Node* a3_ = nullptr;
  const xml::Node* a4_ = nullptr;
  const xml::Node* a5_ = nullptr;
  const xml::Node* b_ = nullptr;
  const xml::Node* c_ = nullptr;
};

TEST_F(ScanRegionsTest, NestedContextsArePrunedOnTheDescendantAxis) {
  // b and c lie inside r's region: each a comes out once, in order, from
  // one scanned region.
  ScopedExecStats scope;
  NodeVec out = Scan(AStream(), {r_, b_, c_}, Axis::kDescendant, a_);
  EXPECT_EQ(out, (NodeVec{a1_, a2_, a3_, a4_, a5_}));
  EXPECT_EQ(scope.stats().index_skips, 1);
  EXPECT_EQ(scope.stats().index_entries_scanned, 5);
}

TEST_F(ScanRegionsTest, DescendantOrSelfAddsMatchingContexts) {
  // a1 matches the test and has an empty region; b does not match.
  EXPECT_EQ(Scan(AStream(), {a1_, b_}, Axis::kDescendantOrSelf, a_),
            (NodeVec{a1_, a2_, a3_}));
  EXPECT_EQ(Scan(doc_->AllElements(), {b_, c_}, Axis::kDescendantOrSelf,
                 NodeTest::AnyName()),
            (NodeVec{b_, a2_, a3_, c_, a4_}));

  // A pruned attribute context: it lies inside its owner's region, but no
  // descendant-axis stream holds it, so its self-hit is added in order.
  StringInterner in;
  auto res = xml::Parse("<r><e k=\"1\"><f/></e></r>", &in);
  ASSERT_TRUE(res.ok());
  const xml::Node* e = res.value()->root()->first_child->first_child;
  const xml::Node* k = e->Attributes()[0];
  const xml::Node* f = e->first_child;
  EXPECT_EQ(Scan(res.value()->AllNodes(), {e, k}, Axis::kDescendantOrSelf,
                 NodeTest::AnyNode()),
            (NodeVec{e, k, f}));
}

TEST_F(ScanRegionsTest, ChildKeepsChildrenOfNestedContextsSorted) {
  // r's region holds b's: the children of both come out merged into
  // document order, and no context is pruned — each region is scanned.
  ScopedExecStats scope;
  NodeVec out = Scan(AStream(), {r_, b_}, Axis::kChild, a_);
  EXPECT_EQ(out, (NodeVec{a1_, a2_, a3_, a5_}));
  for (const xml::Node* n : out) {
    EXPECT_TRUE(n->parent == r_ || n->parent == b_);
  }
  EXPECT_EQ(scope.stats().index_skips, 2);
  EXPECT_EQ(scope.stats().index_entries_scanned, 5 + 2);
}

TEST_F(ScanRegionsTest, OneSkipPerRegionOneEntryPerScannedNode) {
  ScopedExecStats scope;
  // b's region holds a2, a3; c's holds a4.
  NodeVec out = Scan(doc_->AllElements(), {b_, c_}, Axis::kDescendant,
                     NodeTest::AnyName());
  EXPECT_EQ(out, (NodeVec{a2_, a3_, a4_}));
  EXPECT_EQ(scope.stats().index_skips, 2);
  EXPECT_EQ(scope.stats().index_entries_scanned, 3);
}

TEST_F(ScanRegionsTest, EmptyStreamYieldsNothing) {
  const NodeVec& none = doc_->ElementsByTag(interner_.Intern("zzz"));
  ASSERT_TRUE(none.empty());
  ScopedExecStats scope;
  for (Axis axis :
       {Axis::kChild, Axis::kDescendant, Axis::kDescendantOrSelf}) {
    EXPECT_TRUE(Scan(none, {r_, b_}, axis, a_).empty());
  }
  EXPECT_EQ(scope.stats().index_entries_scanned, 0);
}

TEST(ScanRegionsGovernorTest, CancelledGovernorStopsALongScan) {
  std::string xml = "<r>";
  for (int i = 0; i < 3000; ++i) xml += "<a/>";
  xml += "</r>";
  StringInterner in;
  auto res = xml::Parse(xml, &in);
  ASSERT_TRUE(res.ok());
  const NodeVec& stream = res.value()->ElementsByTag(in.Intern("a"));
  ASSERT_EQ(stream.size(), 3000u);

  GovernorLimits limits;
  limits.cancel_token = std::make_shared<CancelToken>();
  limits.cancel_token->Cancel();
  QueryGovernor governor(limits);
  ScopedGovernor governed(&governor);
  GovernorTicker gov;
  const NodeVec ctx{res.value()->root()};
  NodeVec out = ScanRegions(stream, ctx, Axis::kDescendant,
                            NodeTest::Name(in.Intern("a")), &gov);
  EXPECT_LT(out.size(), stream.size());
  EXPECT_EQ(gov.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace xqtp::exec
