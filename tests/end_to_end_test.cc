// End-to-end: the paper's query corpus evaluated on generated workloads,
// with result equality asserted across the core interpreter, the
// unoptimized plan, and the optimized plan under all three pattern
// algorithms.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"

namespace xqtp {
namespace {

/// All evaluation routes agree on `q` over `doc`.
void ExpectAllRoutesAgree(engine::Engine* e, const xml::Document& doc,
                          const std::string& q) {
  auto cq = e->Compile(q);
  ASSERT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
  engine::Engine::GlobalMap globals;
  for (const std::string& g : cq->GlobalNames()) {
    globals[g] = {xdm::Item(doc.root())};
  }
  auto ref = e->Execute(*cq, globals, exec::PatternAlgo::kNLJoin,
                        engine::PlanChoice::kCoreInterp);
  ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
  for (auto pc :
       {engine::PlanChoice::kUnoptimized, engine::PlanChoice::kOptimized}) {
    for (auto algo : {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
                      exec::PatternAlgo::kTwig}) {
      auto res = e->Execute(*cq, globals, algo, pc);
      ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
      ASSERT_EQ(res->size(), ref->size())
          << q << " [" << exec::PatternAlgoName(algo) << "]";
      for (size_t i = 0; i < res->size(); ++i) {
        EXPECT_TRUE((*res)[i] == (*ref)[i])
            << q << " item " << i << " [" << exec::PatternAlgoName(algo)
            << "]";
      }
    }
  }
}

TEST(EndToEnd, PaperFigure1QueriesOnXmark) {
  engine::Engine e;
  workload::XmarkParams p;
  p.factor = 0.02;
  const xml::Document* d =
      e.AddDocument("x", workload::GenerateXmark(p, e.interner()));
  const char* queries[] = {
      // Q1a / Q1b / Q1c
      "$d//person[emailaddress]/name",
      "(for $x in $d//person[emailaddress] return $x)/name",
      "let $x := for $y in $d//person where $y/emailaddress return $y "
      "return $x/name",
      // Q2, Q3, Q4
      "$d//person[name = \"Person Name 3\"]/emailaddress",
      "$d//person[1]/name",
      "$d//person[name = \"Person Name 3\"]/emailaddress[1]",
      // Q5
      "for $x in $d//person[emailaddress] return $x/name",
      // Figure 4 path
      "$d/site/people/person[emailaddress]/profile/interest",
  };
  for (const char* q : queries) ExpectAllRoutesAgree(&e, *d, q);
}

TEST(EndToEnd, QEQueriesOnMember) {
  engine::Engine e;
  workload::MemberParams p;
  p.node_count = 20000;
  p.max_depth = 4;
  p.num_tags = 100;
  const xml::Document* d =
      e.AddDocument("m", workload::GenerateMember(p, e.interner()));
  const char* queries[] = {
      "$input/desc::t01[child::t02[child::t03[child::t04]]]",
      "$input/desc::t01/child::t02[1]/child::t03[child::t04]",
      "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]",
      "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]",
      "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]",
      "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]",
  };
  for (const char* q : queries) ExpectAllRoutesAgree(&e, *d, q);
}

TEST(EndToEnd, SelectivePositionalChainOnDeepDocument) {
  engine::Engine e;
  workload::MemberParams p;
  p.node_count = 5000;
  p.max_depth = 15;
  p.num_tags = 1;
  const xml::Document* d =
      e.AddDocument("deep", workload::GenerateMember(p, e.interner()));
  std::string q = "$input";
  for (int k = 0; k < 10; ++k) q += "/t1[1]";
  ExpectAllRoutesAgree(&e, *d, q);
}

TEST(EndToEnd, NestedElementsOrderSemantics) {
  // Same-name nesting: the case separating Q1a from Q5.
  engine::Engine e;
  auto doc = e.LoadDocument(
      "d",
      "<doc><person><emailaddress/>"
      "<person><emailaddress/><name>inner</name></person>"
      "<name>outer</name></person></doc>");
  ASSERT_TRUE(doc.ok());
  ExpectAllRoutesAgree(&e, *doc.value(), "$d//person[emailaddress]/name");
  ExpectAllRoutesAgree(&e, *doc.value(),
                       "for $x in $d//person[emailaddress] return $x/name");
  // And the two must differ from each other in order.
  auto q1a = e.Run("$d//person[emailaddress]/name", *doc.value());
  auto q5 = e.Run("for $x in $d//person[emailaddress] return $x/name",
                  *doc.value());
  ASSERT_TRUE(q1a.ok() && q5.ok());
  ASSERT_EQ(q1a->size(), 2u);
  ASSERT_EQ(q5->size(), 2u);
  EXPECT_EQ((*q1a)[0].StringValue(), "inner");
  EXPECT_EQ((*q5)[0].StringValue(), "outer");
}

TEST(EndToEnd, DescendantVersionsOfXmarkPaths) {
  // Figure 6: child paths vs descendant paths must return the same nodes
  // on XMark-shaped data.
  engine::Engine e;
  workload::XmarkParams p;
  p.factor = 0.02;
  const xml::Document* d =
      e.AddDocument("x", workload::GenerateXmark(p, e.interner()));
  std::pair<const char*, const char*> pairs[] = {
      {"$input/site/people/person/name", "$input//person//name"},
      {"$input/site/open_auctions/open_auction/bidder/increase",
       "$input//open_auction//increase"},
      {"$input/site/closed_auctions/closed_auction/price",
       "$input//closed_auction//price"},
      {"$input/site/regions/*/item/location", "$input//item//location"},
  };
  for (const auto& [child_q, desc_q] : pairs) {
    ExpectAllRoutesAgree(&e, *d, child_q);
    ExpectAllRoutesAgree(&e, *d, desc_q);
    auto a = e.Run(child_q, *d);
    auto b = e.Run(desc_q, *d);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_FALSE(a->empty());
    ASSERT_EQ(a->size(), b->size()) << child_q;
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_TRUE((*a)[i] == (*b)[i]) << child_q << " item " << i;
    }
  }
}

}  // namespace
}  // namespace xqtp
