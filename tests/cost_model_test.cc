#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exec/cost_model.h"
#include "workload/member_gen.h"

namespace xqtp::exec {
namespace {

using pattern::MakeSingleStep;
using pattern::TreePattern;

/// Every TupleTreePattern in `op`'s plan tree.
void CollectPatterns(const algebra::Op& op,
                     std::vector<const TreePattern*>* out) {
  if (op.kind == algebra::OpKind::kTupleTreePattern) out->push_back(&op.tp);
  for (const algebra::OpPtr& in : op.inputs) CollectPatterns(*in, out);
  if (op.dep != nullptr) CollectPatterns(*op.dep, out);
  if (op.dep2 != nullptr) CollectPatterns(*op.dep2, out);
}

class CostModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MemberParams wide;
    wide.node_count = 50000;
    wide.max_depth = 5;
    wide.num_tags = 100;
    wide.plant_twigs = 25;
    wide_ = engine_.AddDocument(
        "wide", workload::GenerateMember(wide, engine_.interner()));

    workload::MemberParams deep;
    deep.node_count = 20000;
    deep.max_depth = 15;
    deep.num_tags = 1;
    deep_ = engine_.AddDocument(
        "deep", workload::GenerateMember(deep, engine_.interner()));
  }

  Symbol Tag(const char* t) { return engine_.interner()->Intern(t); }

  engine::Engine engine_;
  const xml::Document* wide_;
  const xml::Document* deep_;
};

TEST_F(CostModelTest, StatsAreSane) {
  const DocStats& s = StatsFor(*wide_);
  EXPECT_GT(s.node_count, 50000);
  EXPECT_GT(s.avg_fanout, 2.0);
  EXPECT_EQ(s.max_depth, 5);
  // Cached: same object.
  EXPECT_EQ(&StatsFor(*wide_), &s);
}

TEST_F(CostModelTest, IndexAlgorithmsWinOnRootedDescendantPatterns) {
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kDescendant,
                                  NodeTest::Name(Tag("t01")), Tag("out"));
  xdm::Sequence ctx{xdm::Item(wide_->root())};
  double nl = EstimateCost(tp, ctx, PatternAlgo::kNLJoin);
  double sc = EstimateCost(tp, ctx, PatternAlgo::kStaircase);
  double tj = EstimateCost(tp, ctx, PatternAlgo::kTwig);
  EXPECT_LT(sc, nl);
  EXPECT_LT(tj, nl);
  PatternAlgo choice = ChooseAlgorithm(tp, ctx);
  EXPECT_NE(choice, PatternAlgo::kNLJoin);
}

TEST_F(CostModelTest, TwigWinsOnBranchyPatterns) {
  // t01[t02[t03]][t04] with descendant edges: heavy predicate probing for
  // the staircase join.
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kDescendant,
                                  NodeTest::Name(Tag("t01")), Tag("out"));
  TreePattern p1 = MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                                  NodeTest::Name(Tag("t02")), kInvalidSymbol);
  pattern::AppendPath(&p1, MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                                          NodeTest::Name(Tag("t03")),
                                          kInvalidSymbol));
  pattern::AttachPredicate(&tp, std::move(p1));
  pattern::AttachPredicate(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                          NodeTest::Name(Tag("t04")), kInvalidSymbol));
  xdm::Sequence ctx{xdm::Item(wide_->root())};
  double sc = EstimateCost(tp, ctx, PatternAlgo::kStaircase);
  double tj = EstimateCost(tp, ctx, PatternAlgo::kTwig);
  EXPECT_LT(tj, sc);
  EXPECT_EQ(ChooseAlgorithm(tp, ctx), PatternAlgo::kTwig);
}

TEST_F(CostModelTest, NestedLoopWinsOnDeepSelectiveContexts) {
  // A single child step from one deep context node: the Section 5.3
  // situation — the index algorithms would scan the t1 stream.
  const xml::Node* deep_node = deep_->root()->first_child;
  for (int i = 0; i < 8 && deep_node->first_child != nullptr; ++i) {
    deep_node = deep_node->first_child;
  }
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kChild,
                                  NodeTest::Name(Tag("t1")), Tag("out"));
  xdm::Sequence ctx{xdm::Item(deep_node)};
  double nl = EstimateCost(tp, ctx, PatternAlgo::kNLJoin);
  double sc = EstimateCost(tp, ctx, PatternAlgo::kStaircase);
  double tj = EstimateCost(tp, ctx, PatternAlgo::kTwig);
  EXPECT_LT(nl, sc);
  EXPECT_LT(nl, tj);
  EXPECT_EQ(ChooseAlgorithm(tp, ctx), PatternAlgo::kNLJoin);
}

TEST_F(CostModelTest, CostBasedEvaluationIsCorrect) {
  const char* queries[] = {
      "$input/desc::t01[child::t02[child::t03[child::t04]]]",
      "$input/desc::t01[desc::t02]/child::t03",
      "$input/t1[1]/t1[1]/t1[1]",
  };
  for (const char* q : queries) {
    auto cq = engine_.Compile(q);
    ASSERT_TRUE(cq.ok()) << q;
    const xml::Document* d =
        std::string(q).find("t1[1]") != std::string::npos ? deep_ : wide_;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
    auto ref = engine_.Execute(*cq, globals, PatternAlgo::kNLJoin);
    auto cb = engine_.Execute(*cq, globals, PatternAlgo::kCostBased);
    ASSERT_TRUE(ref.ok() && cb.ok()) << q;
    ASSERT_EQ(ref->size(), cb->size()) << q;
    for (size_t i = 0; i < ref->size(); ++i) {
      EXPECT_TRUE((*ref)[i] == (*cb)[i]) << q << " item " << i;
    }
  }
}

TEST_F(CostModelTest, HandoffsArePricedAsTheNestedLoop) {
  // desc::t01/child::t02[1]{out}: TwigJoin hands positional steps to the
  // nested loop; the staircase joins count positions themselves.
  TreePattern positional = MakeSingleStep(
      Tag("dot"), Axis::kDescendant, NodeTest::Name(Tag("t01")), Tag("a"));
  TreePattern step = MakeSingleStep(Tag("a"), Axis::kChild,
                                    NodeTest::Name(Tag("t02")), Tag("out"));
  step.root->position = 1;
  pattern::AppendPath(&positional, std::move(step));
  ASSERT_TRUE(positional.HasPositionalSteps());

  xdm::Sequence ctx{xdm::Item(wide_->root())};
  double nl_positional = EstimateCost(positional, ctx, PatternAlgo::kNLJoin);
  EXPECT_EQ(EstimateCost(positional, ctx, PatternAlgo::kTwig), nl_positional);
  EXPECT_NE(EstimateCost(positional, ctx, PatternAlgo::kStaircase),
            nl_positional);
}

TEST_F(CostModelTest, FoldedPositionalPatternsAvoidTheTwigHandoff) {
  // QE2 and QE5 with the positional predicate folded into the pattern:
  // TwigJoin would run them as the nested loop, so the model must not
  // pick it.
  engine::CompileOptions copts;
  copts.positional_patterns = true;
  xdm::Sequence ctx{xdm::Item(wide_->root())};
  for (const char* q :
       {"$input/desc::t01/child::t02[1]/child::t03[child::t04]",
        "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]"}) {
    auto cq = engine_.Compile(q, copts);
    ASSERT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
    std::vector<const TreePattern*> tps;
    CollectPatterns(cq->optimized(), &tps);
    ASSERT_EQ(tps.size(), 1u) << q;
    ASSERT_TRUE(tps[0]->HasPositionalSteps()) << q;
    EXPECT_NE(ChooseAlgorithm(*tps[0], ctx), PatternAlgo::kTwig) << q;
  }
}

TEST_F(CostModelTest, EmptyContextCostsNothing) {
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kChild,
                                  NodeTest::AnyName(), Tag("out"));
  EXPECT_EQ(EstimateCost(tp, {}, PatternAlgo::kNLJoin), 0);
  // Choice still returns a valid algorithm.
  PatternAlgo choice = ChooseAlgorithm(tp, {});
  EXPECT_TRUE(choice == PatternAlgo::kNLJoin ||
              choice == PatternAlgo::kStaircase ||
              choice == PatternAlgo::kTwig);
}

}  // namespace
}  // namespace xqtp::exec
