// The adapted XMark corpus: every query compiles, runs on the generated
// auction document, and agrees across all plan choices and algorithms.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"

namespace xqtp::workload {
namespace {

class XmarkQueriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    XmarkParams p;
    p.factor = 0.03;
    doc_ = engine_.AddDocument("x", GenerateXmark(p, engine_.interner()));
  }

  engine::Engine engine_;
  const xml::Document* doc_;
};

TEST_F(XmarkQueriesTest, CorpusIsNonTrivial) {
  EXPECT_GE(XmarkQueryCorpus().size(), 14u);
}

TEST_F(XmarkQueriesTest, AllQueriesCompile) {
  for (const XmarkQuery& q : XmarkQueryCorpus()) {
    auto cq = engine_.Compile(q.text);
    EXPECT_TRUE(cq.ok()) << q.id << ": " << cq.status().ToString();
  }
}

TEST_F(XmarkQueriesTest, AllRoutesAgreeOnEveryQuery) {
  for (const XmarkQuery& q : XmarkQueryCorpus()) {
    auto cq = engine_.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
    auto ref = engine_.Execute(*cq, globals, exec::PatternAlgo::kNLJoin,
                               engine::PlanChoice::kCoreInterp);
    ASSERT_TRUE(ref.ok()) << q.id << ": " << ref.status().ToString();
    for (auto pc : {engine::PlanChoice::kUnoptimized,
                    engine::PlanChoice::kOptimized}) {
      for (auto algo :
           {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
            exec::PatternAlgo::kTwig, exec::PatternAlgo::kCostBased}) {
        auto res = engine_.Execute(*cq, globals, algo, pc);
        ASSERT_TRUE(res.ok()) << q.id << ": " << res.status().ToString();
        ASSERT_EQ(res->size(), ref->size())
            << q.id << " [" << exec::PatternAlgoName(algo) << "]";
        for (size_t i = 0; i < res->size(); ++i) {
          EXPECT_TRUE((*res)[i] == (*ref)[i]) << q.id << " item " << i;
        }
      }
    }
  }
}

TEST_F(XmarkQueriesTest, PathQueriesDetectPatterns) {
  // The pure-path corpus members become TupleTreePattern plans.
  for (const char* id : {"XQ1", "XQ13", "XQ15", "XQ19"}) {
    for (const XmarkQuery& q : XmarkQueryCorpus()) {
      if (q.id != id) continue;
      auto cq = engine_.Compile(q.text);
      ASSERT_TRUE(cq.ok()) << id;
      EXPECT_GE(cq->Stats().tree_pattern_ops, 1) << id;
      EXPECT_EQ(cq->Stats().tree_join_ops, 0) << id;
    }
  }
}

TEST_F(XmarkQueriesTest, ResultsAreNonEmptyWhereExpected) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  for (const XmarkQuery& q : XmarkQueryCorpus()) {
    auto cq = engine_.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id;
    auto res = engine_.Execute(*cq, globals, exec::PatternAlgo::kStaircase);
    ASSERT_TRUE(res.ok()) << q.id;
    // Counting queries return a number; the others should find data on a
    // factor-0.03 document (XQ3/XQ14 depend on random content, so allow
    // empty there).
    if (q.id != "XQ3" && q.id != "XQ14") {
      EXPECT_FALSE(res->empty()) << q.id;
    }
  }
}

}  // namespace
}  // namespace xqtp::workload
