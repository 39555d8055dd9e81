// Tests for the positional tree-pattern extension (the paper's first
// future-work item): with positional_patterns on, constant positional
// predicates fold into pattern steps (rule (g) + pipeline re-rooting),
// producing single-TupleTreePattern plans for queries like Q3 — with
// unchanged semantics across every algorithm.
#include <gtest/gtest.h>

#include "algebra/printer.h"
#include "engine/engine.h"
#include "workload/member_gen.h"

namespace xqtp {
namespace {

/// The paper's plans: rule (g) off.
engine::CompileOptions PaperMode() {
  engine::CompileOptions opts;
  opts.positional_patterns = false;
  return opts;
}

class PositionalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto doc = engine_.LoadDocument(
        "d",
        "<doc>"
        "<person><emailaddress/><name>Ann</name></person>"
        "<person><name>Bob</name></person>"
        "<person><emailaddress/><name>Cid</name></person>"
        "<nest><person><name>Dee</name></person></nest>"
        "</doc>");
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    doc_ = doc.value();
    opts_.positional_patterns = true;
  }

  /// Results with the extension, cross-checked against every algorithm
  /// and against the paper-mode plan.
  std::vector<std::string> Eval(const std::string& q) {
    auto ext = engine_.Compile(q, opts_);
    EXPECT_TRUE(ext.ok()) << q << ": " << ext.status().ToString();
    auto ref_cq = engine_.Compile(q, PaperMode());
    EXPECT_TRUE(ref_cq.ok());
    engine::Engine::GlobalMap globals{{"d", {xdm::Item(doc_->root())}}};
    auto ref = engine_.Execute(*ref_cq, globals, exec::PatternAlgo::kNLJoin);
    EXPECT_TRUE(ref.ok()) << ref.status().ToString();
    std::vector<std::string> expected;
    for (const xdm::Item& it : *ref) expected.push_back(it.StringValue());
    for (auto algo : {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
                      exec::PatternAlgo::kTwig}) {
      auto res = engine_.Execute(*ext, globals, algo);
      EXPECT_TRUE(res.ok()) << q << ": " << res.status().ToString();
      if (!res.ok()) continue;
      std::vector<std::string> values;
      for (const xdm::Item& it : *res) values.push_back(it.StringValue());
      EXPECT_EQ(values, expected)
          << q << " [" << exec::PatternAlgoName(algo) << "]";
    }
    return expected;
  }

  int PatternOps(const std::string& q) {
    auto cq = engine_.Compile(q, opts_);
    EXPECT_TRUE(cq.ok()) << q;
    return cq.ok() ? cq->Stats().tree_pattern_ops : -1;
  }

  std::string Plan(const std::string& q) {
    auto cq = engine_.Compile(q, opts_);
    EXPECT_TRUE(cq.ok()) << q;
    return cq.ok() ? algebra::ToString(cq->optimized(), cq->vars(),
                                       *engine_.interner())
                   : "";
  }

  engine::Engine engine_;
  const xml::Document* doc_;
  engine::CompileOptions opts_;
};

TEST_F(PositionalTest, Q3BecomesASinglePattern) {
  std::string p = Plan("$d//person[1]/name");
  EXPECT_EQ(p,
            "MapToItem{IN#out}"
            "(TupleTreePattern[IN#dot/descendant-or-self::node()/"
            "child::person[1]/child::name{out}]"
            "(MapFromItem{[dot : IN]}($d)))");
  EXPECT_EQ(PatternOps("$d//person[1]/name"), 1);
  EXPECT_EQ(Eval("$d//person[1]/name"),
            (std::vector<std::string>{"Ann", "Dee"}));
}

TEST_F(PositionalTest, PositionCountsPerParentBinding) {
  // //person[1] is the first person *per parent*, not globally: the
  // nested <nest> contributes its own first person (Dee).
  EXPECT_EQ(Eval("$d//person[2]/name"), (std::vector<std::string>{"Bob"}));
  EXPECT_EQ(Eval("$d/doc/person[3]/name"),
            (std::vector<std::string>{"Cid"}));
  EXPECT_TRUE(Eval("$d/doc/person[4]/name").empty());
}

TEST_F(PositionalTest, DeepPositionalChainsMerge) {
  // The Section 5.3 query shape collapses into one pattern.
  EXPECT_EQ(PatternOps("$d/doc/person[1]/name[1]"), 1);
  std::string p = Plan("$d/doc/person[1]/name[1]");
  EXPECT_NE(p.find("child::person[1]/child::name[1]"), std::string::npos)
      << p;
  EXPECT_EQ(Eval("$d/doc/person[1]/name[1]"),
            (std::vector<std::string>{"Ann"}));
}

TEST_F(PositionalTest, PositionBeforeValuePredicates) {
  // [emailaddress][2] filters first, then indexes: NOT expressible as a
  // positional step (position counts raw matches) — the loop must stay.
  auto cq = engine_.Compile("$d//person[emailaddress][2]/name", opts_);
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(Eval("$d//person[emailaddress][2]/name"),
            (std::vector<std::string>{"Cid"}));
  // And the reverse order indexes first, then filters.
  EXPECT_EQ(Eval("$d//person[2][emailaddress]/name"),
            (std::vector<std::string>{}));
}

TEST_F(PositionalTest, PositionLastStaysOutside) {
  // position() = last() is not a constant position: no folding.
  auto cq = engine_.Compile("$d/doc/person[position() = last()]/name", opts_);
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(Eval("$d/doc/person[position() = last()]/name"),
            (std::vector<std::string>{"Cid"}));
}

TEST_F(PositionalTest, DefaultModeKeepsPaperPlans) {
  // With the flag off, Q3 keeps the maps of the paper.
  auto cq = engine_.Compile("$d//person[1]/name", PaperMode());
  ASSERT_TRUE(cq.ok());
  std::string p = algebra::ToString(cq->optimized(), cq->vars(),
                                    *engine_.interner());
  EXPECT_NE(p.find("ForEach"), std::string::npos) << p;
}

TEST_F(PositionalTest, DefaultFoldsPositionalPredicates) {
  // Rule (g) is on by default: Q3's [1] folds into one pattern.
  auto cq = engine_.Compile("$d//person[1]/name");
  ASSERT_TRUE(cq.ok());
  std::string p = algebra::ToString(cq->optimized(), cq->vars(),
                                    *engine_.interner());
  EXPECT_EQ(p.find("ForEach"), std::string::npos) << p;
  EXPECT_EQ(cq->Stats().tree_pattern_ops, 1) << p;
  EXPECT_EQ(Eval("$d//person[1]/name"),
            (std::vector<std::string>{"Ann", "Dee"}));
}

TEST_F(PositionalTest, RandomizedAgreementOnMember) {
  engine::Engine e2;
  workload::MemberParams mp;
  mp.node_count = 4000;
  mp.max_depth = 6;
  mp.num_tags = 6;
  const xml::Document* d =
      e2.AddDocument("m", workload::GenerateMember(mp, e2.interner()));
  engine::CompileOptions ext;
  ext.positional_patterns = true;
  const char* queries[] = {
      "$input//t01[1]", "$input//t02[2]/t03[1]", "$input/t01[1]//t04[3]",
      "$input//t05[1][t06]", "$input//t01[2]//t02[1]",
  };
  for (const char* q : queries) {
    auto cq_ref = e2.Compile(q, PaperMode());
    auto cq_ext = e2.Compile(q, ext);
    ASSERT_TRUE(cq_ref.ok() && cq_ext.ok()) << q;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
    auto ref = e2.Execute(*cq_ref, globals, exec::PatternAlgo::kNLJoin);
    ASSERT_TRUE(ref.ok()) << q;
    for (auto algo : {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
                      exec::PatternAlgo::kTwig}) {
      auto res = e2.Execute(*cq_ext, globals, algo);
      ASSERT_TRUE(res.ok()) << q;
      ASSERT_EQ(res->size(), ref->size())
          << q << " [" << exec::PatternAlgoName(algo) << "]";
      for (size_t i = 0; i < res->size(); ++i) {
        EXPECT_TRUE((*res)[i] == (*ref)[i]) << q << " item " << i;
      }
    }
  }
}

}  // namespace
}  // namespace xqtp
