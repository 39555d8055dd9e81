// Evaluator tests: every compiled query is checked through all plan
// choices (core interpreter, unoptimized P1-style plan, optimized plan)
// and all three pattern algorithms, against hand-computed expectations.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "xml/serializer.h"

namespace xqtp::exec {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = engine_.LoadDocument(
        "d",
        "<site><people>"
        "<person><name>Ann</name><emailaddress>a@x</emailaddress></person>"
        "<person><name>Bob</name></person>"
        "<person><name>Cid</name><emailaddress>c@x</emailaddress>"
        "<profile><interest category=\"art\"/>"
        "<interest category=\"tech\"/></profile></person>"
        "</people></site>");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = doc.value();
  }

  /// Evaluates through every route and asserts all agree; returns the
  /// string values of the result.
  std::vector<std::string> EvalAllRoutes(const std::string& q) {
    auto cq = engine_.Compile(q);
    EXPECT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
    if (!cq.ok()) return {};
    engine::Engine::GlobalMap globals;
    for (const std::string& g : cq->GlobalNames()) {
      globals[g] = {xdm::Item(doc_->root())};
    }
    std::vector<std::string> reference;
    bool first = true;
    for (auto pc : {engine::PlanChoice::kCoreInterp,
                    engine::PlanChoice::kUnoptimized,
                    engine::PlanChoice::kOptimized}) {
      for (auto algo : {PatternAlgo::kNLJoin, PatternAlgo::kStaircase,
                        PatternAlgo::kTwig}) {
        auto res = engine_.Execute(*cq, globals, algo, pc);
        EXPECT_TRUE(res.ok())
            << q << " [" << PatternAlgoName(algo) << "]: "
            << res.status().ToString();
        if (!res.ok()) continue;
        std::vector<std::string> values;
        for (const xdm::Item& it : *res) values.push_back(it.StringValue());
        if (first) {
          reference = values;
          first = false;
        } else {
          EXPECT_EQ(values, reference)
              << q << " route disagreement [" << static_cast<int>(pc) << "/"
              << PatternAlgoName(algo) << "]";
        }
        if (pc == engine::PlanChoice::kCoreInterp) break;  // algo-agnostic
      }
    }
    return reference;
  }

  engine::Engine engine_;
  const xml::Document* doc_;
};

TEST_F(EvaluatorTest, SimplePath) {
  EXPECT_EQ(EvalAllRoutes("$d/site/people/person/name"),
            (std::vector<std::string>{"Ann", "Bob", "Cid"}));
}

TEST_F(EvaluatorTest, DescendantWithPredicate) {
  EXPECT_EQ(EvalAllRoutes("$d//person[emailaddress]/name"),
            (std::vector<std::string>{"Ann", "Cid"}));
}

TEST_F(EvaluatorTest, ValuePredicate) {
  EXPECT_EQ(EvalAllRoutes("$d//person[name = \"Cid\"]/emailaddress"),
            (std::vector<std::string>{"c@x"}));
}

TEST_F(EvaluatorTest, PositionalPredicate) {
  EXPECT_EQ(EvalAllRoutes("$d//person[1]/name"),
            (std::vector<std::string>{"Ann"}));
  EXPECT_EQ(EvalAllRoutes("$d//person[3]/name"),
            (std::vector<std::string>{"Cid"}));
  EXPECT_EQ(EvalAllRoutes("$d//person[position() = last()]/name"),
            (std::vector<std::string>{"Cid"}));
}

TEST_F(EvaluatorTest, PositionalAfterValuePredicate) {
  // Q4-style: positional applies to the filtered sequence.
  EXPECT_EQ(EvalAllRoutes("$d//person[emailaddress][2]/name"),
            (std::vector<std::string>{"Cid"}));
}

TEST_F(EvaluatorTest, AttributeSteps) {
  EXPECT_EQ(EvalAllRoutes("$d//interest/@category"),
            (std::vector<std::string>{"art", "tech"}));
  EXPECT_EQ(EvalAllRoutes("$d//profile[interest]/parent::person/name"),
            (std::vector<std::string>{"Cid"}));
}

TEST_F(EvaluatorTest, FlworForms) {
  EXPECT_EQ(EvalAllRoutes(
                "for $p in $d//person where $p/emailaddress return $p/name"),
            (std::vector<std::string>{"Ann", "Cid"}));
  EXPECT_EQ(EvalAllRoutes("let $ps := $d//person return $ps[2]/name"),
            (std::vector<std::string>{"Bob"}));
}

TEST_F(EvaluatorTest, PositionalForVariable) {
  EXPECT_EQ(EvalAllRoutes(
                "for $p at $i in $d//person where $i = 2 return $p/name"),
            (std::vector<std::string>{"Bob"}));
}

TEST_F(EvaluatorTest, FunctionsAndLogic) {
  EXPECT_EQ(EvalAllRoutes("fn:count($d//person)"),
            (std::vector<std::string>{"3"}));
  EXPECT_EQ(EvalAllRoutes("fn:exists($d//person[name = \"Zed\"])"),
            (std::vector<std::string>{"false"}));
  EXPECT_EQ(EvalAllRoutes("fn:boolean($d//emailaddress)"),
            (std::vector<std::string>{"true"}));
  EXPECT_EQ(EvalAllRoutes(
                "for $p in $d//person where $p/emailaddress and "
                "$p/profile return $p/name"),
            (std::vector<std::string>{"Cid"}));
  EXPECT_EQ(EvalAllRoutes(
                "for $p in $d//person where $p/emailaddress or "
                "$p/profile return $p/name"),
            (std::vector<std::string>{"Ann", "Cid"}));
}

TEST_F(EvaluatorTest, WildcardSteps) {
  EXPECT_EQ(EvalAllRoutes("fn:count($d/site/*)"),
            (std::vector<std::string>{"1"}));
  EXPECT_EQ(EvalAllRoutes("fn:count($d//person/*)"),
            (std::vector<std::string>{"6"}));
}

TEST_F(EvaluatorTest, EmptyResults) {
  EXPECT_TRUE(EvalAllRoutes("$d//nonexistent").empty());
  EXPECT_TRUE(EvalAllRoutes("$d//person[name = \"Zed\"]/name").empty());
}

TEST_F(EvaluatorTest, SequencesAndLiterals) {
  EXPECT_EQ(EvalAllRoutes("(1, 2, 3)"),
            (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(EvalAllRoutes("\"hello\""),
            (std::vector<std::string>{"hello"}));
}

TEST_F(EvaluatorTest, UnboundGlobalFails) {
  auto cq = engine_.Compile("$missing/a");
  ASSERT_TRUE(cq.ok());
  auto res = engine_.Execute(*cq, {}, PatternAlgo::kNLJoin);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace xqtp::exec
