// Work-counter tests: the counters make the paper's Section 5 cost
// arguments observable and assertable.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exec/exec_stats.h"
#include "exec/parallel.h"
#include "workload/member_gen.h"

namespace xqtp::exec {
namespace {

class ExecStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::MemberParams deep;
    deep.node_count = 20000;
    deep.max_depth = 15;
    deep.num_tags = 1;
    deep_ = engine_.AddDocument(
        "deep", workload::GenerateMember(deep, engine_.interner()));
  }

  ExecStats Measure(const std::string& q, PatternAlgo algo,
                    const engine::CompileOptions& copts = {}) {
    auto cq = engine_.Compile(q, copts);
    EXPECT_TRUE(cq.ok()) << q;
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(deep_->root())}}};
    ScopedExecStats scope;
    auto res = engine_.Execute(*cq, globals, algo);
    EXPECT_TRUE(res.ok()) << q;
    return scope.stats();
  }

  engine::Engine engine_;
  const xml::Document* deep_;
};

TEST_F(ExecStatsTest, CollectionIsOffByDefault) {
  EXPECT_EQ(CurrentExecStats(), nullptr);
  {
    ScopedExecStats scope;
    EXPECT_NE(CurrentExecStats(), nullptr);
    CountNodesVisited(5);
    EXPECT_EQ(scope.stats().nodes_visited, 5);
  }
  EXPECT_EQ(CurrentExecStats(), nullptr);
  CountNodesVisited(10);  // no-op, no crash
}

TEST_F(ExecStatsTest, ScopesNestWithoutLeaking) {
  ScopedExecStats outer;
  CountIndexEntries(3);
  {
    ScopedExecStats inner;
    CountIndexEntries(7);
    EXPECT_EQ(inner.stats().index_entries_scanned, 7);
  }
  EXPECT_EQ(outer.stats().index_entries_scanned, 3);
}

TEST_F(ExecStatsTest, AddIsAdditiveExceptPeakMemoryWhichIsHighWater) {
  // The morsel driver merges worker-scope counters with Add(): work
  // counters and governor checks sum, but peak_memory_bytes tracks one
  // shared accountant's high-water mark, so it merges by maximum.
  ExecStats a;
  a.nodes_visited = 10;
  a.governor_checks = 4;
  a.peak_memory_bytes = 1000;
  ExecStats b;
  b.nodes_visited = 5;
  b.governor_checks = 3;
  b.peak_memory_bytes = 700;
  a.Add(b);
  EXPECT_EQ(a.nodes_visited, 15);
  EXPECT_EQ(a.governor_checks, 7);
  EXPECT_EQ(a.peak_memory_bytes, 1000);  // max, not 1700
  b.peak_memory_bytes = 2000;
  a.Add(b);
  EXPECT_EQ(a.peak_memory_bytes, 2000);
  EXPECT_NE(a.ToString().find("governor_checks=10"), std::string::npos);
  EXPECT_NE(a.ToString().find("peak_memory_bytes=2000"), std::string::npos);
}

TEST_F(ExecStatsTest, Section53WorkAsymmetry) {
  // The paper's explanation of the (/t1[1])^k result, in counters: the
  // nested-loop join touches a tiny part of the tree; the staircase join
  // scans index windows per step. The paper's plan keeps the positional
  // steps outside patterns, one single-step pattern per step.
  std::string q = "$input/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]";
  engine::CompileOptions paper;
  paper.positional_patterns = false;
  ExecStats nl = Measure(q, PatternAlgo::kNLJoin, paper);
  ExecStats sc = Measure(q, PatternAlgo::kStaircase, paper);
  EXPECT_GT(nl.nodes_visited, 0);
  EXPECT_LT(nl.nodes_visited, 200);  // first-child chain neighbourhood
  EXPECT_GT(sc.index_entries_scanned, 1000);  // window scans per step
  EXPECT_GT(sc.index_entries_scanned, nl.nodes_visited * 10);
}

TEST_F(ExecStatsTest, IndexAlgorithmsSkipRatherThanTraverse) {
  ExecStats sc = Measure("$input//t1[t1[t1]]", PatternAlgo::kStaircase);
  EXPECT_GT(sc.index_skips, 0);
  EXPECT_GT(sc.index_entries_scanned, 0);
  // The nested-loop evaluator on the same query touches every node it
  // traverses instead.
  ExecStats nl = Measure("$input//t1[t1[t1]]", PatternAlgo::kNLJoin);
  EXPECT_GT(nl.nodes_visited, 10000);
  EXPECT_EQ(nl.index_entries_scanned, 0);
}

TEST_F(ExecStatsTest, MorselizedEvaluationCountsOnceUnderItsAlgorithm) {
  // Each evaluation also counts under the algorithm that ran it, once per
  // EvalPattern however many morsels it fans out into.
  auto cq = engine_.Compile("$input//t1");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(deep_->root())}}};
  EvalOptions opts;
  opts.algo = PatternAlgo::kStaircase;
  opts.threads = 2;
  opts.parallel_min_fanout = 16;
  const int64_t before = ParallelEvaluationCountForTesting();
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals, opts);
  ASSERT_TRUE(res.ok());
  ASSERT_GT(ParallelEvaluationCountForTesting(), before);  // it morselized
  const ExecStats& s = scope.stats();
  EXPECT_EQ(s.pattern_evals, 1);
  EXPECT_EQ(s.sc_evals, 1);
  EXPECT_EQ(s.nl_evals, 0);
  EXPECT_EQ(s.tj_evals, 0);
  EXPECT_NE(s.ToString().find("sc_evals=1"), std::string::npos);

  ExecStats merged = s;
  ExecStats other;
  other.nl_evals = 2;
  other.tj_evals = 3;
  merged.Add(other);
  EXPECT_EQ(merged.nl_evals, 2);
  EXPECT_EQ(merged.sc_evals, 1);
  EXPECT_EQ(merged.tj_evals, 3);
}

TEST_F(ExecStatsTest, PatternEvalsCounted) {
  ExecStats s = Measure("$input//t1", PatternAlgo::kNLJoin);
  EXPECT_EQ(s.pattern_evals, 1);  // a single TupleTreePattern evaluation
  EXPECT_NE(s.ToString().find("pattern_evals=1"), std::string::npos);
}

}  // namespace
}  // namespace xqtp::exec
