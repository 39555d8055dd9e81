// Loop-lifted tree-pattern evaluation (exec::EvalPatternLifted): one
// pattern evaluation per layer of a batch's non-nested contexts must hand
// every row exactly the bindings that evaluating the pattern over that
// row's context node alone returns — under every algorithm, sequentially
// and through the morsel driver, with the rows in or out of document
// order — and whole queries must return the same sequence with the lift
// as on the per-row path (tuple_batch_rows = 1) and in the Core
// interpreter.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/evaluator.h"
#include "exec/exec_stats.h"
#include "exec/parallel.h"
#include "pattern/tree_pattern.h"
#include "workload/member_gen.h"

namespace xqtp::exec {
namespace {

using xdm::Item;

constexpr PatternAlgo kAlgos[] = {
    PatternAlgo::kNLJoin,
    PatternAlgo::kStaircase,
    PatternAlgo::kTwig,
    PatternAlgo::kCostBased,
};

// a1 holds a2, which holds a3: three nested contexts. a4 is a1's
// sibling. Every a has an id attribute.
constexpr const char* kNestedXml =
    "<r><a id=\"1\"><b/><a id=\"2\"><b/><a id=\"3\"><b/><b/></a></a>"
    "<c><b/></c></a><a id=\"4\"><b/></a></r>";

class LiftedPatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Load("d1", kNestedXml);
    doc2_ = Load("d2", "<r><a id=\"5\"><b/><b/></a></r>");
    dot_ = Intern("dot");
    const auto& as = doc_->ElementsByTag(Intern("a"));
    ASSERT_EQ(as.size(), 4u);
    a1_ = as[0];
    a2_ = as[1];
    a3_ = as[2];
    a4_ = as[3];
    a5_ = doc2_->ElementsByTag(Intern("a")).front();
  }

  const xml::Document* Load(const std::string& name, const std::string& xml) {
    auto doc = engine_.LoadDocument(name, xml);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return doc.ok() ? *doc : nullptr;
  }

  Symbol Intern(const std::string& name) {
    return engine_.interner()->Intern(name);
  }

  /// A batch whose field `dot` holds `rows[r]` in row r.
  TupleBatch Batch(std::vector<Item> rows) const {
    TupleBatch b(rows.size());
    TupleColumn col;
    col.field = dot_;
    col.values = std::move(rows);
    b.AddOwnedColumn(std::move(col));
    return b;
  }

  /// IN#dot/axis::test{out}.
  pattern::TreePattern Step(Axis axis, const NodeTest& test) {
    return pattern::MakeSingleStep(dot_, axis, test, Intern("out"));
  }

  /// The patterns every batch below is checked with: each axis a pattern
  /// may use, a positional step, a predicate branch and a two-step path.
  std::vector<pattern::TreePattern> Patterns() {
    const NodeTest b = NodeTest::Name(Intern("b"));
    std::vector<pattern::TreePattern> out;
    out.push_back(Step(Axis::kDescendant, b));
    out.push_back(Step(Axis::kChild, b));
    out.push_back(Step(Axis::kDescendantOrSelf, NodeTest::AnyNode()));
    out.push_back(Step(Axis::kAttribute, NodeTest::Name(Intern("id"))));
    out.push_back(Step(Axis::kSelf, NodeTest::Name(Intern("a"))));
    pattern::TreePattern first = Step(Axis::kDescendant, b);
    first.root->position = 1;
    out.push_back(std::move(first));
    pattern::TreePattern branch = Step(Axis::kDescendant, NodeTest::AnyName());
    pattern::AttachPredicate(
        &branch, pattern::MakeSingleStep(kInvalidSymbol, Axis::kChild, b,
                                         kInvalidSymbol));
    out.push_back(std::move(branch));
    pattern::TreePattern path = pattern::MakeSingleStep(
        dot_, Axis::kDescendant, NodeTest::Name(Intern("a")), Intern("mid"));
    pattern::AppendPath(&path, pattern::MakeSingleStep(Intern("mid"),
                                                       Axis::kChild, b,
                                                       Intern("out")));
    out.push_back(std::move(path));
    return out;
  }

  /// Each row of EvalPatternLifted over `batch` must equal EvalPattern
  /// over that row's context node alone (through ContextNode), for every
  /// pattern and algorithm, at one thread and through the morsel driver
  /// with a forced fan-out.
  void ExpectRowsMatch(const TupleBatch& batch) {
    ParallelContext par;
    par.threads = 2;
    par.min_fanout = 2;
    for (const pattern::TreePattern& tp : Patterns()) {
      const std::string text = tp.ToString(*engine_.interner());
      for (PatternAlgo algo : kAlgos) {
        for (const ParallelContext* p : {static_cast<ParallelContext*>(nullptr),
                                         &par}) {
          const std::string what = text + " [" + PatternAlgoName(algo) +
                                   (p != nullptr ? " t2]" : " t1]");
          auto lifted = EvalPatternLifted(tp, batch, algo, p);
          ASSERT_TRUE(lifted.ok()) << what << ": "
                                   << lifted.status().ToString();
          ASSERT_EQ(lifted->offsets.size(), batch.rows() + 1) << what;
          for (size_t r = 0; r < batch.rows(); ++r) {
            auto ctx = ContextNode(*batch.Get(r, dot_));
            ASSERT_TRUE(ctx.ok()) << what;
            auto want = EvalPattern(tp, std::span(&*ctx, 1), algo);
            ASSERT_TRUE(want.ok()) << what;
            std::vector<const xml::Node*> got(
                lifted->nodes.begin() +
                    static_cast<ptrdiff_t>(lifted->offsets[r]),
                lifted->nodes.begin() +
                    static_cast<ptrdiff_t>(lifted->offsets[r + 1]));
            EXPECT_EQ(got, *want) << what << " row " << r;
          }
        }
      }
    }
  }

  engine::Engine engine_;
  const xml::Document* doc_ = nullptr;
  const xml::Document* doc2_ = nullptr;
  Symbol dot_ = kInvalidSymbol;
  const xml::Node* a1_ = nullptr;
  const xml::Node* a2_ = nullptr;
  const xml::Node* a3_ = nullptr;
  const xml::Node* a4_ = nullptr;
  const xml::Node* a5_ = nullptr;
};

TEST_F(LiftedPatternTest, NestedContextsAcrossRowsTakeOneEvaluationPerLayer) {
  // The rows are out of document order, so the contexts are sorted.
  TupleBatch batch = Batch({Item(a3_), Item(a1_), Item(a4_), Item(a2_)});
  ExpectRowsMatch(batch);
  // a1 and a4 are disjoint, a2 lies in a1 and a3 in a2: three layers,
  // so three pattern evaluations for four rows.
  ScopedExecStats scope;
  auto lifted = EvalPatternLifted(Step(Axis::kDescendant,
                                       NodeTest::Name(Intern("b"))),
                                  batch, PatternAlgo::kNLJoin);
  ASSERT_TRUE(lifted.ok());
  EXPECT_EQ(scope.stats().pattern_evals, 3);
}

TEST_F(LiftedPatternTest, DocumentOrderedRowsTakeOneEvaluationPerLayer) {
  // A pattern's output arrives in document order: no sort, same layers.
  TupleBatch batch = Batch({Item(a1_), Item(a2_), Item(a3_), Item(a4_)});
  ExpectRowsMatch(batch);
  ScopedExecStats scope;
  auto lifted = EvalPatternLifted(Step(Axis::kDescendant,
                                       NodeTest::Name(Intern("b"))),
                                  batch, PatternAlgo::kNLJoin);
  ASSERT_TRUE(lifted.ok());
  EXPECT_EQ(scope.stats().pattern_evals, 3);
}

TEST_F(LiftedPatternTest, OneNodeInSeveralRows) {
  // Repeated nodes, adjacent and apart, in and out of document order.
  ExpectRowsMatch(Batch({Item(a2_), Item(a1_), Item(a2_), Item(a1_),
                         Item(a1_), Item(a4_), Item(a4_)}));
  ExpectRowsMatch(Batch({Item(a1_), Item(a1_), Item(a2_), Item(a4_),
                         Item(a4_)}));
}

TEST_F(LiftedPatternTest, AttributeAndItsOwnerElement) {
  // An attribute and its owner element in separate rows, either way
  // round.
  const xml::Node* id1 = a1_->Attributes().front();
  ExpectRowsMatch(Batch({Item(a1_), Item(id1)}));
  ExpectRowsMatch(Batch({Item(id1), Item(a1_), Item(id1)}));
}

TEST_F(LiftedPatternTest, ContextsFromTwoDocuments) {
  ExpectRowsMatch(Batch({Item(a5_), Item(a1_), Item(a5_), Item(a4_),
                         Item(a2_)}));
}

TEST_F(LiftedPatternTest, NonNodeContextIsATypeError) {
  TupleBatch batch =
      Batch({Item(a1_), Item(static_cast<int64_t>(1)), Item(a4_)});
  for (PatternAlgo algo : kAlgos) {
    auto lifted = EvalPatternLifted(
        Step(Axis::kChild, NodeTest::Name(Intern("b"))), batch, algo);
    ASSERT_FALSE(lifted.ok()) << PatternAlgoName(algo);
    EXPECT_EQ(lifted.status().code(), StatusCode::kTypeError)
        << PatternAlgoName(algo);
  }
}

/// Whole queries: the lifted default, the per-row path and the Core
/// interpreter agree under every algorithm at threads 1 and 2. With
/// `fans_out`, every threads=2 run whose reference succeeds must reach the
/// morsel driver (through the outer pattern's root fan-out at
/// parallel_min_fanout = 2), so the TSan leg races the query across
/// threads. Returns the pattern evaluations of the NLJoin runs at one
/// thread, lifted (index 0) and per row (index 1).
std::vector<int64_t> ExpectQueryAgrees(engine::Engine* e,
                                       const std::string& query,
                                       const engine::Engine::GlobalMap& g,
                                       bool fans_out = true) {
  auto cq = e->Compile(query);
  EXPECT_TRUE(cq.ok()) << query << ": " << cq.status().ToString();
  if (!cq.ok()) return {};
  auto ref = e->Execute(*cq, g, EvalOptions{}, engine::PlanChoice::kCoreInterp);
  std::vector<int64_t> evals(2, 0);
  for (PatternAlgo algo : kAlgos) {
    for (int threads : {1, 2}) {
      for (int batch_rows : {1024, 1}) {
        EvalOptions opts;
        opts.algo = algo;
        opts.threads = threads;
        opts.parallel_min_fanout = 2;
        opts.tuple_batch_rows = batch_rows;
        const std::string what = query + " [" + PatternAlgoName(algo) +
                                 " t" + std::to_string(threads) +
                                 " batch_rows=" + std::to_string(batch_rows) +
                                 "]";
        ScopedExecStats scope;
        const int64_t morselized = ParallelEvaluationCountForTesting();
        auto res = e->Execute(*cq, g, opts);
        if (algo == PatternAlgo::kNLJoin && threads == 1) {
          evals[batch_rows == 1 ? 1 : 0] = scope.stats().pattern_evals;
        }
        if (fans_out && threads == 2 && ref.ok()) {
          EXPECT_GT(ParallelEvaluationCountForTesting(), morselized)
              << what << ": no evaluation reached the morsel driver";
        }
        if (!ref.ok()) {
          EXPECT_FALSE(res.ok()) << what;
          if (!res.ok()) {
            EXPECT_EQ(res.status().code(), ref.status().code()) << what;
          }
          continue;
        }
        EXPECT_TRUE(res.ok()) << what << ": " << res.status().ToString();
        if (res.ok()) {
          EXPECT_EQ(*res, *ref) << what;
        }
      }
    }
  }
  return evals;
}

TEST(LiftedQueryTest, NestedContextsOnMember) {
  engine::Engine e;
  workload::MemberParams p;
  p.node_count = 3000;
  p.max_depth = 8;
  p.num_tags = 3;
  const xml::Document* doc =
      e.AddDocument("m", workload::GenerateMember(p, e.interner()));
  engine::Engine::GlobalMap g{{"input", {Item(doc->root())}}};
  // t1 nests inside t1, so the lifted $a//t2 takes several layers.
  std::vector<int64_t> evals = ExpectQueryAgrees(
      &e,
      "for $a in $input//t1 where fn:count($a//t2) > 1 "
      "return fn:count($a/t3)",
      g);
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_LT(evals[0] * 10, evals[1]) << "the lift did not fire";
}

TEST(LiftedQueryTest, AttributesTwoDocumentsAndNonNodes) {
  engine::Engine e;
  auto d1 = e.LoadDocument("d1", kNestedXml);
  auto d2 = e.LoadDocument("d2", "<r><a id=\"5\"><b/><b/></a></r>");
  ASSERT_TRUE(d1.ok() && d2.ok());
  engine::Engine::GlobalMap one{{"input", {Item((*d1)->root())}}};
  engine::Engine::GlobalMap two{{"a", {Item((*d1)->root())}},
                                {"b", {Item((*d2)->root())}}};
  // Elements and their own attributes as the contexts of sibling rows.
  ExpectQueryAgrees(&e,
                    "for $x in ($input//a, $input//a/@id) "
                    "return fn:count($x/descendant-or-self::node())",
                    one);
  // Rows from two documents in one batch.
  ExpectQueryAgrees(&e, "for $x in ($b//a, $a//a) return fn:count($x//b)",
                    two);
  // An atomic row: a TypeError on every route.
  const char* atomic = "for $x in ($input/r, 1) return fn:count($x/a)";
  auto cq = e.Compile(atomic);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto ref =
      e.Execute(*cq, one, EvalOptions{}, engine::PlanChoice::kCoreInterp);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().code(), StatusCode::kTypeError);
  ExpectQueryAgrees(&e, atomic, one);
}

TEST(LiftedQueryTest, SelectPredicatePatternIsOneEvaluationPerBatch) {
  engine::Engine e;
  auto d = e.LoadDocument(
      "d",
      "<r><a id=\"1\"><b/><b/></a><a id=\"2\"><b/><c/></a>"
      "<a id=\"3\"><c/></a><a id=\"4\"><b/></a></r>");
  ASSERT_TRUE(d.ok());
  engine::Engine::GlobalMap g{{"input", {Item((*d)->root())}}};
  // XQ3's shape: a Select whose predicate compares per-row patterns, over
  // four disjoint a's of which two pass. Lifted: the outer pattern, the
  // three predicate patterns and the return pattern, once each for the
  // one batch. Per row: the three predicate patterns for each a and the
  // return pattern for each a that passes.
  std::vector<int64_t> evals = ExpectQueryAgrees(
      &e,
      "for $a in $input//a where fn:count($a/b) >= fn:count($a/c) + "
      "fn:count($a/@id) return $a/b",
      g);
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_EQ(evals[0], 1 + 3 + 1);
  EXPECT_EQ(evals[1], 1 + 4 * 3 + 2);
}

TEST(LiftedQueryTest, GeneratedReRootShape) {
  // A QueryGen(1) text of the shape MapToItem{fs:ddo(MapToItem{IN#dot}(
  // Select{P2(IN)}(P1(IN))))}(Op): per outer row, P1's bindings form one
  // batch, and the Select lifts P2 over it.
  engine::Engine e;
  auto d = e.LoadDocument(
      "d",
      "<r><b><b><a><a id=\"1\"><a><b id=\"1\"/><b id=\"2\"/><b/></a></a>"
      "<a id=\"3\"><a><b id=\"3\"/><b id=\"2\"/></a></a></a></b></b></r>");
  ASSERT_TRUE(d.ok());
  engine::Engine::GlobalMap g{{"input", {Item((*d)->root())}}};
  // Nothing here fans out: the outer pattern's root step, child::r, has
  // one candidate, and the inner pattern runs over two-node layers
  // (lifted) or one-candidate contexts (per row).
  std::vector<int64_t> evals = ExpectQueryAgrees(
      &e, "for $v23 in $input/r/b/b//a/a return $v23//a/b[@id != 2]", g,
      /*fans_out=*/false);
  ASSERT_EQ(evals.size(), 2u);
  EXPECT_LT(evals[0], evals[1]);
}

}  // namespace
}  // namespace xqtp::exec
