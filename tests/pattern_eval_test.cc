// Unit tests for the three physical tree-pattern algorithms, each checked
// against the same expectations and against each other, and for the
// context contract in front of them (ContextNode, SortDedup).
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exec/exec_stats.h"
#include "exec/parallel.h"
#include "exec/pattern_eval.h"
#include "workload/xmark_gen.h"
#include "xdm/sequence_ops.h"
#include "xml/parser.h"

namespace xqtp::exec {
namespace {

using pattern::MakeSingleStep;
using pattern::TreePattern;

/// EvalPattern over the context nodes of `context`: each item through
/// ContextNode, then the set through SortDedup, as EvalPatternLifted
/// forms a layer from the context nodes of a batch's rows.
Result<std::vector<const xml::Node*>> EvalOver(
    const TreePattern& tp, const xdm::Sequence& context, PatternAlgo algo,
    const ParallelContext* par = nullptr) {
  std::vector<const xml::Node*> nodes;
  for (const xdm::Item& it : context) {
    XQTP_ASSIGN_OR_RETURN(const xml::Node* node, ContextNode(it));
    nodes.push_back(node);
  }
  SortDedup(&nodes);
  return EvalPattern(tp, nodes, algo, par);
}

class PatternEvalTest : public ::testing::TestWithParam<PatternAlgo> {
 protected:
  void SetUp() override {
    auto res = xml::Parse(
        "<r>"
        "<a><c id=\"1\"><d/><d/></c></a>"
        "<a><c/></a>"
        "<a><c id=\"4\"><d/></c><c id=\"6\"/></a>"
        "<b><a><c id=\"9\"><d/></c></a></b>"
        "</r>",
        &interner_);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    doc_ = std::move(res).value();
    dot_ = interner_.Intern("dot");
    out_ = interner_.Intern("out");
  }

  xdm::Sequence RootCtx() { return {xdm::Item(doc_->root())}; }

  std::vector<const xml::Node*> Eval(const TreePattern& tp,
                                     const xdm::Sequence& ctx) {
    auto res = EvalOver(tp, ctx, GetParam());
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? *res : std::vector<const xml::Node*>{};
  }

  StringInterner interner_;
  std::unique_ptr<xml::Document> doc_;
  Symbol dot_, out_;
};

TEST_P(PatternEvalTest, SingleDescendantStep) {
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kDescendant, NodeTest::Name(interner_.Intern("a")), out_);
  auto rows = Eval(tp, RootCtx());
  EXPECT_EQ(rows.size(), 4u);
  // Document order.
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_LT(rows[i]->pre, rows[i + 1]->pre);
  }
}

TEST_P(PatternEvalTest, PathWithPredicate) {
  // descendant::a/child::c[child::d]
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kDescendant, NodeTest::Name(interner_.Intern("a")),
      kInvalidSymbol);
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kChild,
                          NodeTest::Name(interner_.Intern("c")), out_));
  pattern::AttachPredicate(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kChild,
                          NodeTest::Name(interner_.Intern("d")),
                          kInvalidSymbol));
  auto rows = Eval(tp, RootCtx());
  // c nodes with a d child: id=1, id=4, id=9.
  ASSERT_EQ(rows.size(), 3u);
  for (const xml::Node* c : rows) {
    EXPECT_FALSE(c->Attributes().empty());
  }
}

TEST_P(PatternEvalTest, AttributePredicate) {
  // descendant::c[attribute::id]
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kDescendant, NodeTest::Name(interner_.Intern("c")), out_);
  pattern::AttachPredicate(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kAttribute,
                          NodeTest::Name(interner_.Intern("id")),
                          kInvalidSymbol));
  auto rows = Eval(tp, RootCtx());
  EXPECT_EQ(rows.size(), 4u);  // ids 1, 4, 6, 9
}

TEST_P(PatternEvalTest, AttributeExtraction) {
  // descendant::c/attribute::id
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kDescendant, NodeTest::Name(interner_.Intern("c")),
      kInvalidSymbol);
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kAttribute,
                          NodeTest::Name(interner_.Intern("id")), out_));
  auto rows = Eval(tp, RootCtx());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0]->Text(), "1");
  EXPECT_EQ(rows[3]->Text(), "9");
}

TEST_P(PatternEvalTest, DescendantDescendantDedupes) {
  // r//b? No: descendant::a/descendant::d — the nested a (under b) makes
  // one d reachable via one a only; but descendant::*/descendant::d can
  // reach nodes through several bindings and must still emit each d once.
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendant,
                                  NodeTest::AnyName(), kInvalidSymbol);
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kDescendant,
                          NodeTest::Name(interner_.Intern("d")), out_));
  auto rows = Eval(tp, RootCtx());
  EXPECT_EQ(rows.size(), 4u);  // four distinct d elements
  for (size_t i = 0; i + 1 < rows.size(); ++i) {
    EXPECT_LT(rows[i]->pre, rows[i + 1]->pre);
  }
}

TEST_P(PatternEvalTest, EmptyContext) {
  TreePattern tp = MakeSingleStep(dot_, Axis::kChild, NodeTest::AnyName(),
                                  out_);
  auto rows = Eval(tp, {});
  EXPECT_TRUE(rows.empty());
}

TEST_P(PatternEvalTest, NoMatches) {
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kDescendant, NodeTest::Name(interner_.Intern("zzz")), out_);
  auto rows = Eval(tp, RootCtx());
  EXPECT_TRUE(rows.empty());
}

TEST_P(PatternEvalTest, DescendantOrSelfNodeChain) {
  // descendant-or-self::node()/child::a — the expansion of //a.
  TreePattern tp = MakeSingleStep(dot_, Axis::kDescendantOrSelf,
                                  NodeTest::AnyNode(), kInvalidSymbol);
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kChild,
                          NodeTest::Name(interner_.Intern("a")), out_));
  auto rows = Eval(tp, RootCtx());
  EXPECT_EQ(rows.size(), 4u);
}

TEST_P(PatternEvalTest, MultipleContextNodes) {
  // Context: all a elements; pattern child::c.
  const auto& as = doc_->ElementsByTag(interner_.Intern("a"));
  xdm::Sequence ctx;
  for (const xml::Node* n : as) ctx.push_back(xdm::Item(n));
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kChild, NodeTest::Name(interner_.Intern("c")), out_);
  auto rows = Eval(tp, ctx);
  EXPECT_EQ(rows.size(), 5u);
}

TEST_P(PatternEvalTest, DescendantOrSelfTiesWithParentStep) {
  // child::r/descendant-or-self::node() — the // expansion applied right
  // after an exact step. The r element heads BOTH steps' streams at once,
  // so an algorithm that breaks the tie toward the child step never
  // matches r and loses every binding (including the self match).
  StringInterner in2;
  auto res = xml::Parse("<r><d/><d/></r>", &in2);
  ASSERT_TRUE(res.ok());
  TreePattern tp = MakeSingleStep(in2.Intern("dot"), Axis::kChild,
                                  NodeTest::Name(in2.Intern("r")),
                                  kInvalidSymbol);
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kDescendantOrSelf,
                          NodeTest::AnyNode(), in2.Intern("out")));
  auto rows = EvalOver(tp, {xdm::Item(res.value()->root())}, GetParam());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);  // r itself plus its two d children
  EXPECT_EQ((*rows)[0]->name, in2.Intern("r"));
}

TEST_P(PatternEvalTest, RootAttributeStep) {
  // A bare attribute::id step against element contexts: the context
  // node's own attributes must match, not only those met while visiting
  // its descendants.
  const auto& cs = doc_->ElementsByTag(interner_.Intern("c"));
  xdm::Sequence ctx;
  for (const xml::Node* n : cs) ctx.push_back(xdm::Item(n));
  TreePattern tp = MakeSingleStep(
      dot_, Axis::kAttribute, NodeTest::Name(interner_.Intern("id")), out_);
  auto rows = Eval(tp, ctx);
  ASSERT_EQ(rows.size(), 4u);  // ids 1, 4, 6, 9
  EXPECT_EQ(rows[0]->Text(), "1");
  EXPECT_EQ(rows[3]->Text(), "9");
}

TEST_P(PatternEvalTest, AncestorRelatedContextsDuplicateSiblings) {
  // Contexts where one node contains another (document node and its r
  // child) over duplicate siblings: each d must come out exactly once,
  // and a test that matches nothing must stay empty — for every
  // algorithm, since these are the shapes the cross-evaluator oracle
  // compares.
  StringInterner in2;
  auto res = xml::Parse("<r><d/><d/></r>", &in2);
  ASSERT_TRUE(res.ok());
  const xml::Node* r = res.value()->root()->first_child;
  xdm::Sequence ctx{xdm::Item(res.value()->root()), xdm::Item(r)};
  TreePattern tp = MakeSingleStep(in2.Intern("dot"), Axis::kChild,
                                  NodeTest::Name(in2.Intern("d")),
                                  in2.Intern("out"));
  auto rows = EvalOver(tp, ctx, GetParam());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 2u);

  TreePattern none = MakeSingleStep(in2.Intern("dot"), Axis::kChild,
                                    NodeTest::Name(in2.Intern("e")),
                                    in2.Intern("out"));
  auto empty_rows = EvalOver(none, ctx, GetParam());
  ASSERT_TRUE(empty_rows.ok()) << empty_rows.status().ToString();
  EXPECT_TRUE(empty_rows->empty());
}

TEST_P(PatternEvalTest, TextNodeTest) {
  StringInterner in2;
  auto res = xml::Parse("<r><a>x</a><a><b>y</b></a></r>", &in2);
  ASSERT_TRUE(res.ok());
  TreePattern tp = MakeSingleStep(in2.Intern("dot"), Axis::kDescendant,
                                  NodeTest::Text(), in2.Intern("out"));
  auto rows_res = EvalOver(tp, {xdm::Item(res.value()->root())}, GetParam());
  ASSERT_TRUE(rows_res.ok()) << rows_res.status().ToString();
  EXPECT_EQ(rows_res->size(), 2u);
}

TEST_P(PatternEvalTest, AttributeWildcardSteps) {
  // attribute::* and attribute::node() have no index stream: the index
  // algorithms must navigate the context nodes' attributes, on the main
  // path and in a predicate alike.
  StringInterner in2;
  auto res = xml::Parse(
      "<r x=\"1\"><a id=\"1\" k=\"2\"><b>t</b><a y=\"3\"><b/>u</a></a>"
      "<a><b z=\"4\"/><c><a/></c></a>text</r>",
      &in2);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  xdm::Sequence ctx{xdm::Item(res.value()->root())};
  for (NodeTest wildcard : {NodeTest::AnyName(), NodeTest::AnyNode()}) {
    // descendant::a/attribute::*: id, k and y, in document order.
    TreePattern path = MakeSingleStep(in2.Intern("dot"), Axis::kDescendant,
                                      NodeTest::Name(in2.Intern("a")),
                                      kInvalidSymbol);
    pattern::AppendPath(&path, MakeSingleStep(kInvalidSymbol, Axis::kAttribute,
                                              wildcard, in2.Intern("out")));
    auto rows = EvalOver(path, ctx, GetParam());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 3u);
    EXPECT_EQ((*rows)[0]->Text(), "1");
    EXPECT_EQ((*rows)[1]->Text(), "2");
    EXPECT_EQ((*rows)[2]->Text(), "3");

    // descendant::*[attribute::*]: r, both a's with attributes, and b.
    TreePattern pred = MakeSingleStep(in2.Intern("dot"), Axis::kDescendant,
                                      NodeTest::AnyName(), in2.Intern("out"));
    pattern::AttachPredicate(
        &pred,
        MakeSingleStep(kInvalidSymbol, Axis::kAttribute, wildcard,
                       kInvalidSymbol));
    rows = EvalOver(pred, ctx, GetParam());
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->size(), 4u);
    EXPECT_EQ((*rows)[0]->name, in2.Intern("r"));
    EXPECT_EQ((*rows)[3]->name, in2.Intern("b"));
  }
}

TEST_P(PatternEvalTest, DescendantOrSelfOverAnElementAndItsAttribute) {
  // The attribute lies inside its owner's pre/post region, so staircase
  // pruning drops it as a context; node() still matches it as its own
  // descendant-or-self.
  StringInterner in2;
  auto res = xml::Parse("<r><e k=\"1\"><f/></e></r>", &in2);
  ASSERT_TRUE(res.ok());
  const xml::Node* e = res.value()->root()->first_child->first_child;
  xdm::Sequence ctx{xdm::Item(e), xdm::Item(e->Attributes()[0])};
  TreePattern tp = MakeSingleStep(in2.Intern("dot"), Axis::kDescendantOrSelf,
                                  NodeTest::AnyNode(), in2.Intern("out"));
  auto rows = EvalOver(tp, ctx, GetParam());
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 3u);  // e, its attribute k, then f
  EXPECT_EQ((*rows)[1], e->Attributes()[0]);
}

TEST_P(PatternEvalTest, NestedSameTagElements) {
  // Two nested pairs of a's: in the first only the inner a has a b child,
  // in the second only the outer one; only the inner a of the first pair
  // has a k attribute. Every element is named by its id.
  StringInterner in2;
  auto res = xml::Parse(
      "<r><a id=\"1\"><a id=\"2\" k=\"x\"><b id=\"5\"/></a></a>"
      "<a id=\"3\"><b id=\"6\"/><a id=\"4\"/></a></r>",
      &in2);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  const xml::Document& doc = *res.value();
  const Symbol out = in2.Intern("out");
  const NodeTest a = NodeTest::Name(in2.Intern("a"));
  const NodeTest b = NodeTest::Name(in2.Intern("b"));
  const NodeTest id = NodeTest::Name(in2.Intern("id"));
  const auto step = [&](Axis axis, const NodeTest& test) {
    return MakeSingleStep(kInvalidSymbol, axis, test, out);
  };
  // The ids of the nodes `tp` returns from `ctx`, in order: an
  // attribute's value, an element's id attribute.
  const auto ids = [&](const TreePattern& tp, const xdm::Sequence& ctx) {
    auto rows = EvalOver(tp, ctx, GetParam());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    std::string s;
    for (const xml::Node* n : rows.ok() ? *rows
                                        : std::vector<const xml::Node*>{}) {
      if (!s.empty()) s += ' ';
      s += n->IsAttribute() ? n->Text() : n->Attributes()[0]->Text();
    }
    return s;
  };
  const xdm::Sequence root{xdm::Item(doc.root())};
  const auto& as = doc.ElementsByTag(in2.Intern("a"));  // ids 1, 2, 3, 4
  ASSERT_EQ(as.size(), 4u);

  // descendant::a[child::b], then its attributes under nested owners.
  TreePattern tp = step(Axis::kDescendant, a);
  pattern::AttachPredicate(&tp, step(Axis::kChild, b));
  EXPECT_EQ(ids(tp, root), "2 3");
  pattern::AppendPath(&tp, step(Axis::kAttribute, id));
  EXPECT_EQ(ids(tp, root), "2 3");

  // descendant::a[descendant::b] keeps both a's of the first pair;
  // descendant::a[descendant::a] only the outer ones, since no a is its
  // own descendant.
  tp = step(Axis::kDescendant, a);
  pattern::AttachPredicate(&tp, step(Axis::kDescendant, b));
  EXPECT_EQ(ids(tp, root), "1 2 3");
  tp = step(Axis::kDescendant, a);
  pattern::AttachPredicate(&tp, step(Axis::kDescendant, a));
  EXPECT_EQ(ids(tp, root), "1 3");

  // descendant::a[attribute::k] and descendant::a/child::a/attribute::id.
  tp = step(Axis::kDescendant, a);
  pattern::AttachPredicate(
      &tp, step(Axis::kAttribute, NodeTest::Name(in2.Intern("k"))));
  EXPECT_EQ(ids(tp, root), "2");
  tp = step(Axis::kDescendant, a);
  pattern::AppendPath(&tp, step(Axis::kChild, a));
  pattern::AppendPath(&tp, step(Axis::kAttribute, id));
  EXPECT_EQ(ids(tp, root), "2 4");

  // attribute::id and child::b from the nested contexts a1 and a2.
  const xdm::Sequence nested{xdm::Item(as[0]), xdm::Item(as[1])};
  EXPECT_EQ(ids(step(Axis::kAttribute, id), nested), "1 2");
  EXPECT_EQ(ids(step(Axis::kChild, b), nested), "5");

  // A descendant-or-self step whose context a1 matches its test but is no
  // candidate after refinement: a1 reaches a2, not itself.
  tp = step(Axis::kDescendant, a);
  pattern::AppendPath(&tp, step(Axis::kDescendantOrSelf, a));
  pattern::AttachPredicate(&tp, step(Axis::kChild, b));
  EXPECT_EQ(ids(tp, root), "2 3");
  tp = step(Axis::kDescendantOrSelf, a);
  pattern::AttachPredicate(&tp, step(Axis::kChild, b));
  pattern::AppendPath(&tp, step(Axis::kAttribute, id));
  EXPECT_EQ(ids(tp, {xdm::Item(as[0]), xdm::Item(as[2])}), "2 3");
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PatternEvalTest,
                         ::testing::Values(PatternAlgo::kNLJoin,
                                           PatternAlgo::kStaircase,
                                           PatternAlgo::kTwig),
                         [](const auto& info) {
                           return PatternAlgoName(info.param);
                         });

// The Section 4.1 example in its single-output form: every algorithm,
// sequentially and through the morsel driver, returns the extraction
// point's bindings in document order.
TEST(PatternBindings, PaperSection41Example) {
  StringInterner in;
  auto res = xml::Parse(
      "<x1><a><c id=\"1\"><d id=\"2\"/><d id=\"3\"/></c></a><a/></x1>",
      &in);
  ASSERT_TRUE(res.ok());
  // IN#x/descendant::a/child::c[attribute::id]/child::d{z}
  TreePattern tp = MakeSingleStep(in.Intern("x"), Axis::kDescendant,
                                  NodeTest::Name(in.Intern("a")),
                                  kInvalidSymbol);
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kChild,
                          NodeTest::Name(in.Intern("c")), in.Intern("y")));
  pattern::AttachPredicate(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kAttribute,
                          NodeTest::Name(in.Intern("id")), kInvalidSymbol));
  pattern::AppendPath(
      &tp, MakeSingleStep(kInvalidSymbol, Axis::kChild,
                          NodeTest::Name(in.Intern("d")), in.Intern("z")));
  ASSERT_EQ(tp.ToString(in),
            "IN#x/descendant::a/child::c[attribute::id]/child::d{z}");

  // The second a gives the root step two candidates, so a forced fan-out
  // of 2 cuts them into two morsels.
  const std::vector<const xml::Node*> ctx{res.value()->root()};
  ParallelContext par;
  par.threads = 2;
  par.min_fanout = 2;
  for (PatternAlgo algo : {PatternAlgo::kNLJoin, PatternAlgo::kStaircase,
                           PatternAlgo::kTwig}) {
    for (const ParallelContext* p : {static_cast<ParallelContext*>(nullptr),
                                     &par}) {
      const std::string what = std::string(PatternAlgoName(algo)) +
                               (p != nullptr ? " t2" : " t1");
      const int64_t morselized_before = ParallelEvaluationCountForTesting();
      auto nodes = EvalPattern(tp, ctx, algo, p);
      ASSERT_TRUE(nodes.ok()) << what << ": " << nodes.status().ToString();
      EXPECT_EQ(ParallelEvaluationCountForTesting() - morselized_before,
                p != nullptr ? 1 : 0)
          << what;
      ASSERT_EQ(nodes->size(), 2u) << what;
      EXPECT_EQ((*nodes)[0]->Attributes()[0]->Text(), "2") << what;
      EXPECT_EQ((*nodes)[1]->Attributes()[0]->Text(), "3") << what;
    }
  }
}

// ---- the context contract --------------------------------------------------

// An atomic context item is one TypeError, raised before any algorithm
// runs; a node is its own context.
TEST(ContextNodeTest, NonNodeContextIsError) {
  StringInterner in;
  auto res = xml::Parse("<r/>", &in);
  ASSERT_TRUE(res.ok());
  auto atomic = ContextNode(xdm::Item(static_cast<int64_t>(1)));
  ASSERT_FALSE(atomic.ok());
  EXPECT_EQ(atomic.status().code(), StatusCode::kTypeError);
  auto node = ContextNode(xdm::Item(res.value()->root()));
  ASSERT_TRUE(node.ok()) << node.status().ToString();
  EXPECT_EQ(*node, res.value()->root());
}

// A context that lists every node twice, in reverse document order, is
// the sorted distinct context once it has gone through SortDedup: every
// algorithm binds the same nodes and does the same work, so a repeated
// context is evaluated once.
TEST(SortDedupTest, RepeatedUnsortedContextIsEvaluatedOnce) {
  engine::Engine e;
  workload::XmarkParams p;
  p.factor = 0.01;
  const xml::Document* d =
      e.AddDocument("x", workload::GenerateXmark(p, e.interner()));
  const std::vector<const xml::Node*>& distinct = d->AllElements();
  xdm::Sequence repeated;
  for (auto it = distinct.rbegin(); it != distinct.rend(); ++it) {
    repeated.push_back(xdm::Item(*it));
    repeated.push_back(xdm::Item(*it));
  }
  std::vector<const xml::Node*> nodes;
  for (const xdm::Item& it : repeated) nodes.push_back(it.node());
  SortDedup(&nodes);
  EXPECT_EQ(nodes, distinct);
  const TreePattern tp = MakeSingleStep(e.interner()->Intern("dot"),
                                        Axis::kChild, NodeTest::AnyName(),
                                        e.interner()->Intern("out"));
  for (PatternAlgo algo : {PatternAlgo::kNLJoin, PatternAlgo::kStaircase,
                           PatternAlgo::kTwig, PatternAlgo::kCostBased}) {
    ExecStats want;
    ExecStats got;
    Result<std::vector<const xml::Node*>> ref = std::vector<const xml::Node*>{};
    Result<std::vector<const xml::Node*>> res = ref;
    {
      ScopedExecStats scope;
      ref = EvalPattern(tp, distinct, algo);
      want = scope.stats();
    }
    {
      ScopedExecStats scope;
      res = EvalOver(tp, repeated, algo);
      got = scope.stats();
    }
    ASSERT_TRUE(ref.ok() && res.ok()) << PatternAlgoName(algo);
    EXPECT_FALSE(ref->empty()) << PatternAlgoName(algo);
    EXPECT_EQ(*res, *ref) << PatternAlgoName(algo);
    EXPECT_EQ(got.nodes_visited, want.nodes_visited) << PatternAlgoName(algo);
    EXPECT_EQ(got.index_entries_scanned, want.index_entries_scanned)
        << PatternAlgoName(algo);
    EXPECT_EQ(got.index_skips, want.index_skips) << PatternAlgoName(algo);
  }
}

// ---- the IsDistinctDocOrdered probe ----------------------------------------
// The fast path every Ddo evaluation rests on: true must mean a Ddo is the
// identity.

class DistinctDocOrderedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto res = xml::Parse("<r><a/><b><c/></b><d/></r>", &interner_);
    ASSERT_TRUE(res.ok());
    doc_ = std::move(res).value();
    const xml::Node* r = doc_->root()->first_child;
    a_ = r->first_child;
    b_ = a_->next_sibling;
    c_ = b_->first_child;
    d_ = b_->next_sibling;
  }

  StringInterner interner_;
  std::unique_ptr<xml::Document> doc_;
  const xml::Node* a_ = nullptr;
  const xml::Node* b_ = nullptr;
  const xml::Node* c_ = nullptr;
  const xml::Node* d_ = nullptr;
};

TEST_F(DistinctDocOrderedTest, OrderedDistinctNodesPass) {
  xdm::Sequence s{xdm::Item(a_), xdm::Item(b_), xdm::Item(c_), xdm::Item(d_)};
  EXPECT_TRUE(xdm::IsDistinctDocOrdered(s));
}

TEST_F(DistinctDocOrderedTest, LengthAtMostOneAlwaysPasses) {
  // Any sequence of length <= 1 is trivially distinct and ordered — even
  // an atomic, which a Ddo returns unchanged.
  EXPECT_TRUE(xdm::IsDistinctDocOrdered({}));
  EXPECT_TRUE(xdm::IsDistinctDocOrdered({xdm::Item(c_)}));
  EXPECT_TRUE(xdm::IsDistinctDocOrdered({xdm::Item(int64_t{42})}));
}

TEST_F(DistinctDocOrderedTest, OutOfOrderFails) {
  EXPECT_FALSE(xdm::IsDistinctDocOrdered({xdm::Item(d_), xdm::Item(a_)}));
}

TEST_F(DistinctDocOrderedTest, DuplicateFails) {
  EXPECT_FALSE(xdm::IsDistinctDocOrdered({xdm::Item(a_), xdm::Item(a_)}));
}

TEST_F(DistinctDocOrderedTest, AtomicAmongNodesFails) {
  // A multi-item sequence containing any non-node is not doc-ordered
  // (Ddo on it either type-errors or re-sorts; the fast path must not
  // claim it).
  EXPECT_FALSE(
      xdm::IsDistinctDocOrdered({xdm::Item(a_), xdm::Item(int64_t{1})}));
  EXPECT_FALSE(
      xdm::IsDistinctDocOrdered({xdm::Item(int64_t{1}), xdm::Item(b_)}));
}

TEST_F(DistinctDocOrderedTest, PostDdoSequencesPass) {
  // DistinctDocOrder's output must satisfy the probe, whatever the input
  // permutation or duplication.
  auto sorted = xdm::DistinctDocOrder(
      {xdm::Item(d_), xdm::Item(a_), xdm::Item(c_), xdm::Item(a_),
       xdm::Item(b_)});
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(xdm::IsDistinctDocOrdered(*sorted));
  EXPECT_EQ(sorted->size(), 4u);
  // Ancestor/descendant pairs are distinct nodes: both survive, in order.
  auto pair = xdm::DistinctDocOrder({xdm::Item(c_), xdm::Item(b_)});
  ASSERT_TRUE(pair.ok());
  EXPECT_TRUE(xdm::IsDistinctDocOrdered(*pair));
  EXPECT_EQ(pair->size(), 2u);
  EXPECT_EQ((*pair)[0].node(), b_);
}

}  // namespace
}  // namespace xqtp::exec
