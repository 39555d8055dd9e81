// Tests for the translation-validation subsystem: witness corpus shape,
// witness shrinking, deterministic query generation, the cross-evaluator
// oracle, and — end to end — that an intentionally unsound rewrite rule
// is detected at its checkpoint and reported with a minimized witness.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "analysis/cross_check.h"
#include "analysis/equiv_checker.h"
#include "analysis/qgen.h"
#include "analysis/witness.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "xml/parser.h"

namespace xqtp {
namespace {

TEST(WitnessCorpus, CoversAdversarialShapes) {
  StringInterner interner;
  analysis::WitnessCorpus corpus(&interner);
  ASSERT_GE(corpus.docs().size(), 10u);
  std::set<std::string> names;
  bool has_empty = false;
  for (const analysis::WitnessDoc& w : corpus.docs()) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate name " << w.name;
    ASSERT_NE(w.doc, nullptr) << w.name;
    // Every witness is rooted at <r> so /r and // entry points both work.
    const xml::Node* root_elem = w.doc->root()->first_child;
    ASSERT_NE(root_elem, nullptr) << w.name;
    EXPECT_EQ(root_elem->name, interner.Intern("r")) << w.name;
    if (root_elem->first_child == nullptr) has_empty = true;
  }
  EXPECT_TRUE(has_empty);  // the empty-match document
  for (const char* name :
       {"recursion", "dup-siblings", "mixed-content", "positional"}) {
    EXPECT_TRUE(names.count(name)) << name;
  }
}

TEST(WitnessShrink, MinimizesUnderPredicate) {
  StringInterner interner;
  const std::string input =
      "<r><a id=\"1\"><b/><c/></a><d><e/><e/></d><c/></r>";
  // "Divergence": the document contains a b element. The minimal such
  // document over this input is <r> with b hoisted to the top.
  analysis::WitnessPredicate pred = [&](const xml::Document& d) {
    return !d.ElementsByTag(interner.Intern("b")).empty();
  };
  std::string shrunk = analysis::ShrinkWitness(input, &interner, pred);
  EXPECT_LT(shrunk.size(), input.size());
  EXPECT_NE(shrunk.find("<b"), std::string::npos);
  EXPECT_EQ(shrunk.find("<c"), std::string::npos);
  EXPECT_EQ(shrunk.find("<d"), std::string::npos);
  EXPECT_EQ(shrunk.find("id="), std::string::npos);
  auto reparsed = xml::Parse(shrunk, &interner);
  ASSERT_TRUE(reparsed.ok()) << shrunk;
  EXPECT_TRUE(pred(*reparsed.value()));
}

TEST(QueryGen, DeterministicPerSeed) {
  analysis::QueryGen a(42), b(42), c(7);
  bool differs_from_other_seed = false;
  for (int i = 0; i < 100; ++i) {
    std::string qa = a.Next();
    EXPECT_EQ(qa, b.Next()) << "seed 42 diverged at query " << i;
    if (qa != c.Next()) differs_from_other_seed = true;
  }
  EXPECT_TRUE(differs_from_other_seed);
}

TEST(QueryGen, GeneratedQueriesCompile) {
  engine::Engine eng;
  analysis::QueryGen gen(1);
  for (int i = 0; i < 50; ++i) {
    std::string q = gen.Next();
    auto compiled = eng.Compile(q);
    EXPECT_TRUE(compiled.ok())
        << "query " << i << ": " << q << "\n"
        << compiled.status().ToString();
  }
}

TEST(CrossCheck, AllAlgorithmsAgreeOnWitnessCorpus) {
  ASSERT_EQ(analysis::CrossCheckAlgos().size(), 3u);
  StringInterner interner;
  analysis::WitnessCorpus corpus(&interner);
  // descendant::a[child::b] — a predicate twig, the shape where holistic
  // and binary algorithms historically diverge.
  pattern::TreePattern tp = pattern::MakeSingleStep(
      interner.Intern("dot"), Axis::kDescendant,
      NodeTest::Name(interner.Intern("a")), interner.Intern("out"));
  pattern::AttachPredicate(
      &tp, pattern::MakeSingleStep(kInvalidSymbol, Axis::kChild,
                                   NodeTest::Name(interner.Intern("b")),
                                   kInvalidSymbol));
  // Both parallel routes must reach the morsel driver, or the oracle
  // would quietly check the sequential path twice.
  int64_t before = exec::ParallelEvaluationCountForTesting();
  for (const analysis::WitnessDoc& w : corpus.docs()) {
    const std::vector<const xml::Node*> root{w.doc->root()};
    Status s = analysis::CrossCheckPattern(tp, root, interner);
    EXPECT_TRUE(s.ok()) << w.name << ": " << s.ToString();
  }
  EXPECT_GT(exec::ParallelEvaluationCountForTesting(), before)
      << "no +morsel leg of CrossCheckPattern reached the morsel driver";

  // The same pattern as a query, through CrossCheck's plan routes; and
  // a query whose predicate pattern depends on each outer row, so the
  // default routes loop-lift it and the batch_rows=1 route does not.
  engine::Engine eng;
  analysis::WitnessCorpus plan_corpus(eng.interner());
  for (const char* text :
       {"$input//a[b]",
        "for $x in $input//a where fn:count($x//b) > 0 return $x/c"}) {
    auto q = eng.Compile(text);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    before = exec::ParallelEvaluationCountForTesting();
    for (const analysis::WitnessDoc& w : plan_corpus.docs()) {
      exec::Bindings bindings;
      for (core::VarId v = 0; v < static_cast<core::VarId>(q->vars().size());
           ++v) {
        if (q->vars().IsGlobal(v)) bindings[v] = {xdm::Item(w.doc->root())};
      }
      analysis::CrossCheckInput in;
      in.reference = &q->rewritten();
      in.unoptimized = &q->plan();
      in.optimized = &q->optimized();
      Status s = analysis::CrossCheck(in, q->vars(), bindings);
      EXPECT_TRUE(s.ok()) << text << " on " << w.name << ": " << s.ToString();
    }
    EXPECT_GT(exec::ParallelEvaluationCountForTesting(), before)
        << text << ": no threads=2 route of CrossCheck reached the morsel "
        << "driver";
  }
}

TEST(EquivChecker, AcceptsSoundPipeline) {
  engine::EngineOptions opts;
  opts.analysis.check_equivalence = true;
  engine::Engine eng(opts);
  for (const char* q : {
           "$input//a[b]/c",
           "for $v in $input/r/a where exists($v/b) return $v/c",
           "$input/r/a[position() = 2]",
           "count($input//b)",
           // NaN on every witness without a z element: fn:number of an
           // empty sequence must agree with itself (NaN != NaN in IEEE).
           "fn:number($input//z[1]/b)",
       }) {
    auto compiled = eng.Compile(q);
    EXPECT_TRUE(compiled.ok()) << q << "\n" << compiled.status().ToString();
  }
}

TEST(EquivChecker, DetectsUnsoundRewriteAndShrinksWitness) {
  engine::EngineOptions opts;
  opts.analysis.check_equivalence = true;
  engine::Engine eng(opts);

  engine::CompileOptions copts;
  copts.rewrite_opts.unsound_ddo_strip_for_testing = true;
  // //a//b reaches the same b through several a bindings: dropping the
  // fs:ddo wrappers yields duplicates, which the oracle must observe on
  // at least one witness (the recursive same-tag document).
  auto compiled = eng.Compile("$input//a//b", copts);
  ASSERT_FALSE(compiled.ok());
  const Status& s = compiled.status();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  std::string msg = s.ToString();
  EXPECT_NE(msg.find("translation validation"), std::string::npos) << msg;
  // Attributed to the rule family that fired (VerifyScope tagging).
  EXPECT_NE(msg.find("unsound ddo strip"), std::string::npos) << msg;

  // The reported witness must be minimized: still parseable, and
  // strictly smaller than the corpus document it came from.
  auto field = [&](const std::string& key) {
    size_t at = msg.find(key);
    EXPECT_NE(at, std::string::npos) << msg;
    if (at == std::string::npos) return std::string();
    at += key.size();
    return msg.substr(at, msg.find('\n', at) - at);
  };
  std::string witness_name = field("witness: ");
  std::string minimized = field("witness(minimized): ");
  ASSERT_FALSE(minimized.empty());
  StringInterner scratch;
  EXPECT_TRUE(xml::Parse(minimized, &scratch).ok()) << minimized;
  analysis::WitnessCorpus corpus(&scratch);
  for (const analysis::WitnessDoc& w : corpus.docs()) {
    if (w.name == witness_name) {
      EXPECT_LT(minimized.size(), w.xml.size());
    }
  }

  // Negative control: the same engine accepts the query once the broken
  // rule is off.
  auto sound = eng.Compile("$input//a//b");
  EXPECT_TRUE(sound.ok()) << sound.status().ToString();
}

}  // namespace
}  // namespace xqtp
