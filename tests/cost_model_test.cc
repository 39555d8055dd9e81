#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "exec/cost_model.h"
#include "exec/exec_stats.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"

namespace xqtp::exec {
namespace {

using algebra::Op;
using algebra::OpKind;
using pattern::MakeSingleStep;
using pattern::TreePattern;
using Stats = xml::DocumentStats;

/// QE1-QE6 of the paper's Figure 5.
constexpr const char* kQE[] = {
    "$input/desc::t01[child::t02[child::t03[child::t04]]]",
    "$input/desc::t01/child::t02[1]/child::t03[child::t04]",
    "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]",
    "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]",
    "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]",
    "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]",
};

/// The XMark document of xmark_serve (factor 1.0, generator seed 7), in an
/// engine shared by the tests that read it.
engine::Engine& XmarkEngine() {
  static engine::Engine* e = [] {
    auto* engine = new engine::Engine();
    workload::XmarkParams p;
    p.factor = 1.0;
    engine->AddDocument("xmark",
                        workload::GenerateXmark(p, engine->interner()));
    return engine;
  }();
  return *e;
}

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

/// The TupleTreePattern producing the tuples `op` yields, or nullptr when
/// they come from the query's input (its root); `in` produces IN.
const Op* Producer(const Op& op, const Op* in) {
  switch (op.kind) {
    case OpKind::kTupleTreePattern:
      return &op;
    case OpKind::kSelect:
      return Producer(*op.inputs[0], in);
    case OpKind::kInputTuple:
      return in;
    default:
      return nullptr;
  }
}

/// Every TupleTreePattern of `op`'s plan with the pattern producing its
/// context (nullptr: the root).
void CollectRuns(const Op& op, const Op* in,
                 std::vector<std::pair<const Op*, const Op*>>* out) {
  if (op.kind == OpKind::kTupleTreePattern) {
    out->push_back({&op, Producer(*op.inputs[0], in)});
  }
  // A Select's predicate and a MapToItem's dependent see the input's
  // tuples as IN.
  const Op* inner = in;
  if (op.kind == OpKind::kSelect || op.kind == OpKind::kMapToItem) {
    inner = Producer(*op.inputs[0], in);
  }
  for (const algebra::OpPtr& i : op.inputs) CollectRuns(*i, in, out);
  if (op.dep != nullptr) CollectRuns(*op.dep, inner, out);
  if (op.dep2 != nullptr) CollectRuns(*op.dep2, inner, out);
}

/// The contexts `producer`'s pattern hands on: the nodes it binds over
/// its own contexts, or the root.
xdm::Sequence ContextsOf(
    const Op* producer, const xml::Document& doc,
    const std::vector<std::pair<const Op*, const Op*>>& runs) {
  if (producer == nullptr) return {xdm::Item(doc.root())};
  const Op* above = nullptr;
  for (const auto& [op, from] : runs) {
    if (op == producer) above = from;
  }
  auto nodes = EvalPattern(producer->tp, ContextsOf(above, doc, runs),
                           PatternAlgo::kNLJoin);
  EXPECT_TRUE(nodes.ok());
  xdm::Sequence out;
  for (const xml::Node* n : *nodes) out.push_back(xdm::Item(n));
  return out;
}

/// The algorithm counted for the one pattern evaluation in `s`.
PatternAlgo RanAlone(const ExecStats& s) {
  EXPECT_EQ(s.pattern_evals, 1);
  EXPECT_EQ(s.nl_evals + s.sc_evals + s.tj_evals, 1);
  if (s.sc_evals == 1) return PatternAlgo::kStaircase;
  if (s.tj_evals == 1) return PatternAlgo::kTwig;
  return PatternAlgo::kNLJoin;
}

TEST_F(CostModelTest, StatsAreSane) {
  engine::Engine e;
  // The inner a has b children between its parent's: its parent still
  // counts once in the (a, b) pair.
  auto doc = e.LoadDocument(
      "s", "<a id='1'><b/><a><b/><b x='2'/>hi</a><b/>yo</a>");
  ASSERT_TRUE(doc.ok());
  const Stats& s = (*doc)->Stats();
  EXPECT_EQ(s.node_count, 9);  // the document, six elements, two texts
  auto sym = [&e](const char* name) { return e.interner()->Lookup(name); };
  const int a = s.RowOfTag(sym("a"));
  const int b = s.RowOfTag(sym("b"));
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_EQ(s.RowOfTag(sym("id")), -1);  // an attribute, not an element

  auto row = [&s](int r) { return s.rows[static_cast<size_t>(r)]; };
  EXPECT_EQ(row(a).count, 2);
  EXPECT_EQ(row(a).subtree, 10);  // 7 below the outer a, 3 below the inner
  EXPECT_EQ(row(a).children, 7);
  EXPECT_EQ(row(a).inner, 2);
  EXPECT_EQ(row(a).outermost, 1);
  EXPECT_EQ(row(b).count, 4);
  EXPECT_EQ(row(b).subtree, 0);
  EXPECT_EQ(row(b).children, 0);
  EXPECT_EQ(row(b).outermost, 4);
  EXPECT_EQ(row(Stats::kDocumentRow).subtree, 8);
  EXPECT_EQ(row(Stats::kLeafRow).count, 4);  // two texts, two attributes
  EXPECT_EQ(row(Stats::kElementRow).count, 6);
  EXPECT_EQ(row(Stats::kElementRow).subtree, 10);

  struct Want {
    int row;
    xml::NodeKind kind;
    const char* name;
    int64_t children;
    int64_t parents;
  };
  const Want want[] = {
      {Stats::kDocumentRow, xml::NodeKind::kElement, "a", 1, 1},
      {a, xml::NodeKind::kElement, "a", 1, 1},
      {a, xml::NodeKind::kElement, "b", 4, 2},
      {a, xml::NodeKind::kText, nullptr, 2, 2},
      {a, xml::NodeKind::kAttribute, "id", 1, 1},
      {b, xml::NodeKind::kAttribute, "x", 1, 1},
      {Stats::kElementRow, xml::NodeKind::kElement, "b", 4, 2},
      {Stats::kElementRow, xml::NodeKind::kAttribute, "x", 1, 1},
  };
  size_t pairs = 0;
  for (const Want& w : want) {
    const Symbol name = w.name == nullptr ? kInvalidSymbol : sym(w.name);
    const Stats::Pair* p = s.FindPair(w.row, Stats::ChildKey(w.kind, name));
    ASSERT_NE(p, nullptr) << w.row << " " << (w.name ? w.name : "text");
    EXPECT_EQ(p->children, w.children) << w.row << " " << (w.name ? w.name : "text");
    EXPECT_EQ(p->parents, w.parents) << w.row << " " << (w.name ? w.name : "text");
    if (w.row != Stats::kElementRow) ++pairs;
  }
  // No other pair: b has no element or text children.
  EXPECT_EQ(s.FindPair(b, Stats::ChildKey(xml::NodeKind::kElement, sym("b"))),
            nullptr);
  const auto& elements = row(Stats::kElementRow);
  EXPECT_EQ(s.pairs.size() - (elements.pairs_end - elements.pairs_begin),
            pairs);
}

// Each predicted counter lies within 10x of what the algorithm records,
// either way (counts below 10 count as 10), for every pattern of the
// XMark corpus plans and of QE1-QE6, over the contexts each receives.
TEST_F(CostModelTest, EstimatesTrackCounters) {
  struct Case {
    engine::Engine* engine;
    const xml::Document* doc;
    std::string id;
    std::string query;
  };
  std::vector<Case> cases;
  engine::Engine& xe = XmarkEngine();
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    cases.push_back({&xe, xe.FindDocument("xmark"), q.id, q.text});
  }
  for (size_t i = 0; i < std::size(kQE); ++i) {
    cases.push_back({&engine_, wide_, "QE" + std::to_string(i + 1), kQE[i]});
  }
  auto within = [](double predicted, int64_t actual) {
    const double p = std::max(10.0, predicted);
    const double a = std::max<double>(10, static_cast<double>(actual));
    return p <= 10 * a && a <= 10 * p;
  };
  int patterns = 0;
  for (const Case& c : cases) {
    auto cq = c.engine->Compile(c.query);
    ASSERT_TRUE(cq.ok()) << c.id << ": " << cq.status().ToString();
    std::vector<std::pair<const Op*, const Op*>> runs;
    CollectRuns(cq->optimized(), nullptr, &runs);
    ASSERT_FALSE(runs.empty()) << c.id;
    for (const auto& [op, producer] : runs) {
      ++patterns;
      const xdm::Sequence context = ContextsOf(producer, *c.doc, runs);
      const std::string what =
          c.id + " " + op->tp.ToString(*c.engine->interner());
      for (PatternAlgo algo : {PatternAlgo::kNLJoin, PatternAlgo::kStaircase,
                               PatternAlgo::kTwig}) {
        ScopedExecStats scope;
        ASSERT_TRUE(EvalPattern(op->tp, context, algo).ok()) << what;
        const ExecStats& got = scope.stats();
        const PredictedWork want = PredictWork(op->tp, context, algo);
        const std::string label = what + " " + PatternAlgoName(algo);
        EXPECT_TRUE(within(want.nodes_visited, got.nodes_visited))
            << label << ": visits predicted " << want.nodes_visited
            << ", recorded " << got.nodes_visited;
        EXPECT_TRUE(within(want.index_entries, got.index_entries_scanned))
            << label << ": index entries predicted " << want.index_entries
            << ", recorded " << got.index_entries_scanned;
        EXPECT_TRUE(within(want.index_skips, got.index_skips))
            << label << ": index skips predicted " << want.index_skips
            << ", recorded " << got.index_skips;
      }
    }
  }
  EXPECT_GE(patterns, 20 + 6);
}

// The choices the statistics make, read from the per-algorithm counts:
// the staircase join for XQ1's and XQ2's folded positional chains, which
// a root context crosses with one region scan per step.
TEST_F(CostModelTest, PicksTheStaircaseJoinForFoldedPositionalChains) {
  engine::Engine& xe = XmarkEngine();
  const xml::Document* doc = xe.FindDocument("xmark");
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc->root())}}};
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    if (q.id != "XQ1" && q.id != "XQ2") continue;
    auto cq = xe.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id;
    ScopedExecStats scope;
    ASSERT_TRUE(xe.Execute(*cq, globals, PatternAlgo::kCostBased).ok());
    EXPECT_EQ(RanAlone(scope.stats()), PatternAlgo::kStaircase) << q.id;
  }
}

// The twig join for QE4 and QE6, whose descendant branches it scans once
// per edge where the staircase join scans them once per candidate.
TEST_F(CostModelTest, PicksTheTwigJoinForDescendantTwigs) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(wide_->root())}}};
  for (size_t i : {3u, 5u}) {
    auto cq = engine_.Compile(kQE[i]);
    ASSERT_TRUE(cq.ok()) << kQE[i];
    ScopedExecStats scope;
    ASSERT_TRUE(engine_.Execute(*cq, globals, PatternAlgo::kCostBased).ok());
    EXPECT_EQ(RanAlone(scope.stats()), PatternAlgo::kTwig) << kQE[i];
  }
}

// The nested loop for a child step from one deep node, which visits a
// few children where the index algorithms skip into the whole stream.
TEST_F(CostModelTest, PicksTheNestedLoopForADeepSelectiveChildStep) {
  const xml::Node* deep_node = deep_->root()->first_child;
  for (int i = 0; i < 8 && deep_node->first_child != nullptr; ++i) {
    deep_node = deep_node->first_child;
  }
  TreePattern tp = MakeSingleStep(Tag("dot"), Axis::kChild,
                                  NodeTest::Name(Tag("t1")), Tag("out"));
  ScopedExecStats scope;
  ASSERT_TRUE(
      EvalPattern(tp, {xdm::Item(deep_node)}, PatternAlgo::kCostBased).ok());
  EXPECT_EQ(RanAlone(scope.stats()), PatternAlgo::kNLJoin);
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
