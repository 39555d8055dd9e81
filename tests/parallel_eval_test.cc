// The morsel-parallel driver (exec/parallel.h) must be invisible in the
// results: every algorithm, at every thread count, returns exactly the
// sequence the sequential path returns — same items, same order, same
// cardinality. parallel_min_fanout is forced down so even the small test
// document actually morselizes.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/exec_stats.h"
#include "exec/parallel.h"
#include "exec/pattern_eval.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"

namespace xqtp::exec {
namespace {

constexpr PatternAlgo kAllAlgos[] = {
    PatternAlgo::kNLJoin,
    PatternAlgo::kStaircase,
    PatternAlgo::kTwig,
};

EvalOptions ParallelOpts(PatternAlgo algo, int threads) {
  EvalOptions opts;
  opts.algo = algo;
  opts.threads = threads;
  // Small enough that the XMark corpus queries morselize on a 0.03-factor
  // document; small morsels exercise the merge on many runs.
  opts.parallel_min_fanout = 4;
  return opts;
}

class ParallelEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::XmarkParams p;
    p.factor = 0.03;
    doc_ = engine_.AddDocument("x", workload::GenerateXmark(p, engine_.interner()));
  }

  engine::Engine engine_;
  const xml::Document* doc_;
};

// Acceptance matrix: all three algorithms x {1, 2, 8} threads x the
// XMark query corpus, bit-identical to the Core interpreter — the
// semantics reference, which shares no plan, pattern algorithm or morsel
// driver with the evaluator under test — plus tiny-batch legs, so
// multi-row streams cross batch boundaries, and the per-row path runs.
TEST_F(ParallelEvalTest, BitIdenticalAcrossThreadsAndAlgorithms) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    auto cq = engine_.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id << ": " << cq.status().ToString();
    auto ref = engine_.Execute(*cq, globals, EvalOptions{},
                               engine::PlanChoice::kCoreInterp);
    ASSERT_TRUE(ref.ok()) << q.id << " core-interp: "
                          << ref.status().ToString();
    for (PatternAlgo algo : kAllAlgos) {
      for (int threads : {1, 2, 8}) {
        auto res = engine_.Execute(*cq, globals, ParallelOpts(algo, threads));
        ASSERT_TRUE(res.ok())
            << q.id << " [" << PatternAlgoName(algo) << " t" << threads
            << "]: " << res.status().ToString();
        ASSERT_EQ(res->size(), ref->size())
            << q.id << " [" << PatternAlgoName(algo) << " t" << threads << "]";
        for (size_t i = 0; i < res->size(); ++i) {
          ASSERT_TRUE((*res)[i] == (*ref)[i])
              << q.id << " [" << PatternAlgoName(algo) << " t" << threads
              << "] item " << i;
        }
      }
      // Tiny-batch legs without multiplying the whole matrix: 3 rows
      // forces batch boundaries inside every multi-row stream (and lifts
      // dependent patterns over 3 rows at a time); 1 row is the per-row
      // path, where nothing is lifted.
      for (int batch_rows : {3, 1}) {
        EvalOptions tiny = ParallelOpts(algo, 2);
        tiny.tuple_batch_rows = batch_rows;
        const std::string leg = q.id + " [" + PatternAlgoName(algo) +
                                " batch_rows=" + std::to_string(batch_rows) +
                                "]";
        auto res = engine_.Execute(*cq, globals, tiny);
        ASSERT_TRUE(res.ok()) << leg << ": " << res.status().ToString();
        ASSERT_EQ(res->size(), ref->size()) << leg;
        for (size_t i = 0; i < res->size(); ++i) {
          ASSERT_TRUE((*res)[i] == (*ref)[i]) << leg << " item " << i;
        }
      }
    }
  }
}

// The cost-based meta-algorithm resolves to a concrete algorithm before
// the driver morselizes; it must agree with the nested-loop reference, as
// every algorithm must, at every thread count. The attribute-wildcard
// cases have no index stream for their attribute step, which the index
// algorithms (and the cost model's choice among them) must navigate.
TEST_F(ParallelEvalTest, CostBasedAgreesAcrossThreads) {
  auto attrs = engine_.LoadDocument(
      "attrs",
      "<r x=\"1\"><a id=\"1\" k=\"2\"><b>t</b><a y=\"3\"><b/>u</a></a>"
      "<a><b z=\"4\"/><c><a/></c></a>text</r>");
  ASSERT_TRUE(attrs.ok()) << attrs.status().ToString();
  struct Case {
    const xml::Document* doc;
    const char* query;
  };
  const Case cases[] = {
      {doc_, "$input//person[emailaddress]//interest"},
      {*attrs, "$input//a/@*"},
      {*attrs, "$input//*[@*]"},
      {*attrs, "$input//a/attribute::node()"},
      {*attrs, "$input//a[b]/@*"},
  };
  for (const Case& c : cases) {
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(c.doc->root())}}};
    auto cq = engine_.Compile(c.query);
    ASSERT_TRUE(cq.ok()) << c.query << ": " << cq.status().ToString();
    auto ref = engine_.Execute(*cq, globals,
                               ParallelOpts(PatternAlgo::kNLJoin, 1));
    ASSERT_TRUE(ref.ok()) << c.query << ": " << ref.status().ToString();
    ASSERT_FALSE(ref->empty()) << c.query;
    for (PatternAlgo algo : {PatternAlgo::kNLJoin, PatternAlgo::kStaircase,
                             PatternAlgo::kTwig, PatternAlgo::kCostBased}) {
      for (int threads : {1, 2, 8}) {
        auto res = engine_.Execute(*cq, globals, ParallelOpts(algo, threads));
        ASSERT_TRUE(res.ok()) << c.query << " [" << PatternAlgoName(algo)
                              << " t" << threads << "]: "
                              << res.status().ToString();
        ASSERT_EQ(res->size(), ref->size())
            << c.query << " [" << PatternAlgoName(algo) << " t" << threads
            << "]";
        for (size_t i = 0; i < res->size(); ++i) {
          EXPECT_TRUE((*res)[i] == (*ref)[i])
              << c.query << " [" << PatternAlgoName(algo) << " t" << threads
              << "] item " << i;
        }
      }
    }
  }
}

// Empty-input edge case: a query whose context sequence is empty must
// return an empty sequence at every thread count without morselizing.
TEST_F(ParallelEvalTest, EmptyInput) {
  auto cq = engine_.Compile("$input//keyword");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {}}};
  for (PatternAlgo algo : kAllAlgos) {
    for (int threads : {1, 2, 8}) {
      auto res = engine_.Execute(*cq, globals, ParallelOpts(algo, threads));
      ASSERT_TRUE(res.ok())
          << PatternAlgoName(algo) << " t" << threads << ": "
          << res.status().ToString();
      EXPECT_TRUE(res->empty()) << PatternAlgoName(algo) << " t" << threads;
    }
  }
}

// A query matching nothing (no such tag anywhere) exercises the merge of
// all-empty morsel runs.
TEST_F(ParallelEvalTest, EmptyResultAfterMorselizing) {
  auto cq = engine_.Compile("$input//keyword/site");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  for (PatternAlgo algo : kAllAlgos) {
    for (int threads : {2, 8}) {
      auto res = engine_.Execute(*cq, globals, ParallelOpts(algo, threads));
      ASSERT_TRUE(res.ok()) << PatternAlgoName(algo) << " t" << threads;
      EXPECT_TRUE(res->empty()) << PatternAlgoName(algo) << " t" << threads;
    }
  }
}

// Single-morsel edge case: with the fan-out floor above the candidate
// count the driver must fall back to the plain sequential path (and still
// return identical results).
TEST_F(ParallelEvalTest, SingleMorselFallsBackToSequential) {
  auto cq = engine_.Compile("$input//person[emailaddress]/name");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  for (PatternAlgo algo : kAllAlgos) {
    auto ref = engine_.Execute(*cq, globals, ParallelOpts(algo, 1));
    ASSERT_TRUE(ref.ok());
    EvalOptions opts = ParallelOpts(algo, 8);
    opts.parallel_min_fanout = 1 << 30;  // never reached: one morsel max
    auto res = engine_.Execute(*cq, globals, opts);
    ASSERT_TRUE(res.ok()) << PatternAlgoName(algo);
    ASSERT_EQ(res->size(), ref->size()) << PatternAlgoName(algo);
    for (size_t i = 0; i < res->size(); ++i) {
      EXPECT_TRUE((*res)[i] == (*ref)[i])
          << PatternAlgoName(algo) << " item " << i;
    }
  }
}

// On the per-row path (tuple_batch_rows = 1, where nothing is
// loop-lifted) a dependent plan evaluates its pattern once per outer row,
// each time over one small context. When the contexts' subtrees hold
// fewer nodes than parallel_min_fanout, no root-step scan can reach the
// threshold, so the driver must not scan at all: threads=2 does exactly
// the index work of threads=1. The document has fewer than 256 nodes, so
// this holds for every context at the default parallel_min_fanout.
TEST(ParallelProbeTest, SmallSubtreesSkipTheRootFanOutScan) {
  std::string xml = "<site><open_auctions>";
  for (int i = 0; i < 20; ++i) {
    xml += "<open_auction><initial>5</initial><bidder><increase>" +
           std::to_string(i) + "</increase></bidder><current>" +
           std::to_string(5 + i) + "</current></open_auction>";
  }
  xml += "</open_auctions></site>";
  engine::Engine e;
  auto doc = e.LoadDocument("auctions", xml);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  engine::Engine::GlobalMap globals{{"input", {xdm::Item((*doc)->root())}}};
  // Per-row child steps (XQ3), and per-row descendant and
  // descendant-or-self steps under a function call.
  for (const char* query :
       {"for $a in $input/site/open_auctions/open_auction "
        "where $a/current > $a/initial + $a/initial return $a/current",
        "for $a in $input//open_auction "
        "where fn:count($a//increase) > 0 return $a/initial",
        "for $a in $input//open_auction "
        "return fn:count($a/descendant-or-self::node())"}) {
    auto cq = e.Compile(query);
    ASSERT_TRUE(cq.ok()) << query << ": " << cq.status().ToString();
    for (PatternAlgo algo : kAllAlgos) {
      ExecStats stats[2];
      xdm::Sequence results[2];
      for (int t = 0; t < 2; ++t) {
        EvalOptions opts;
        opts.algo = algo;
        opts.threads = t + 1;
        opts.tuple_batch_rows = 1;
        ScopedExecStats scope;
        auto res = e.Execute(*cq, globals, opts);
        ASSERT_TRUE(res.ok()) << query << ": " << res.status().ToString();
        results[t] = *res;
        stats[t] = scope.stats();
      }
      const std::string what =
          std::string(query) + " [" + PatternAlgoName(algo) + "]";
      ASSERT_GE(stats[0].pattern_evals, 20) << what << ": not per row";
      EXPECT_EQ(results[1], results[0]) << what;
      EXPECT_EQ(stats[1].index_skips, stats[0].index_skips) << what;
      EXPECT_EQ(stats[1].index_entries_scanned,
                stats[0].index_entries_scanned)
          << what;
    }
  }
}

// Regression: root fan-out re-roots the pattern with a self axis, a shape
// the optimizer never builds. A later descendant-or-self step must still
// match the context node itself under the self-rooted instance (a
// divergence of this shape was found by the equiv_fuzz oracle).
TEST(ParallelRerootTest, SelfRootedStreamKeepsContextMatches) {
  engine::Engine e;
  auto doc = e.LoadDocument("w", "<r><b><b><d/></b><a/></b></r>");
  ASSERT_TRUE(doc.ok());
  auto cq = e.Compile("$input/descendant::b/descendant-or-self::node()");
  ASSERT_TRUE(cq.ok());
  engine::Engine::GlobalMap globals{{"input", {xdm::Item((*doc)->root())}}};
  for (PatternAlgo algo : kAllAlgos) {
    auto ref = e.Execute(*cq, globals, ParallelOpts(algo, 1));
    ASSERT_TRUE(ref.ok()) << PatternAlgoName(algo);
    ASSERT_EQ(ref->size(), 4u) << PatternAlgoName(algo);  // b, b, d, a
    EvalOptions opts = ParallelOpts(algo, 2);
    opts.parallel_min_fanout = 2;
    auto res = e.Execute(*cq, globals, opts);
    ASSERT_TRUE(res.ok()) << PatternAlgoName(algo);
    ASSERT_EQ(res->size(), ref->size()) << PatternAlgoName(algo);
    for (size_t i = 0; i < res->size(); ++i) {
      EXPECT_TRUE((*res)[i] == (*ref)[i])
          << PatternAlgoName(algo) << " item " << i;
    }
  }
}

// Regression for the BENCH_smoke.json scaling cliff ($input//item//location
// NLJoin: 528µs @2t → 618µs @4t → 717µs @8t before the clamp): the driver
// must size its width and morsels by the work actually available — one
// thread per min_fanout units — instead of the requested maximum, so an
// 8-thread request over a ~1000-candidate fan-out runs ~3 threads wide.
TEST(ThreadClampTest, EffectiveThreadsTrackAvailableMorsels) {
  // The bench shape: 1020 //item candidates, default min_fanout 256.
  EXPECT_EQ(ClampParallelThreads(1020, 8, 256), 3);
  EXPECT_EQ(ClampParallelThreads(1020, 4, 256), 3);
  EXPECT_EQ(ClampParallelThreads(1020, 2, 256), 2);
  // Plenty of units: the requested width is honored.
  EXPECT_EQ(ClampParallelThreads(8 * 256, 8, 256), 8);
  EXPECT_EQ(ClampParallelThreads(100000, 8, 256), 8);
  // The floor is 2: the min_fanout gate (not the clamp) decides whether
  // parallelism happens at all, so tiny-but-eligible fan-outs keep their
  // two-way split (the translation-validation oracle relies on this).
  EXPECT_EQ(ClampParallelThreads(4, 8, 4), 2);
  EXPECT_EQ(ClampParallelThreads(2, 2, 2), 2);
  // Sequential requests pass through untouched.
  EXPECT_EQ(ClampParallelThreads(1020, 1, 256), 1);
  EXPECT_EQ(ClampParallelThreads(1020, 0, 256), 0);
  // Degenerate min_fanout never divides by zero.
  EXPECT_EQ(ClampParallelThreads(1020, 8, 0), 8);
}

// ResolveThreads maps the EvalOptions encoding to an actual thread count.
TEST(RunMorselsTest, ResolveThreads) {
  EXPECT_GE(ResolveThreads(0), 1);  // auto: hardware threads
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(2), 2);
  EXPECT_EQ(ResolveThreads(8), 8);
}

// Every index is claimed exactly once, call after call.
TEST(RunMorselsTest, RunClaimsEachIndexOnce) {
  for (int round = 0; round < 3; ++round) {
    std::vector<std::atomic<int>> hits(97);
    for (auto& h : hits) h.store(0);
    RunMorsels(4, static_cast<int>(hits.size()),
               [&hits](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "round " << round << " index " << i;
    }
  }
}

TEST(RunMorselsTest, RunWithZeroCountIsANoOp) {
  RunMorsels(2, 0, [](int) { FAIL() << "fn called for empty batch"; });
}

// The calling thread's serial number; unlike std::thread::id, never
// reused by a later thread.
uint64_t ThreadSerial() {
  static std::atomic<uint64_t> next{1};
  thread_local const uint64_t serial = next.fetch_add(1);
  return serial;
}

// Makes one width-2 RunMorsels call whose two morsels wait for each
// other, so the calling thread and one borrowed worker take one each.
// Counts each index's runs into `hits` (when given) and returns the
// worker's serial.
uint64_t WorkerOfAWidthTwoCall(std::atomic<int>* hits = nullptr) {
  const uint64_t caller = ThreadSerial();
  std::atomic<int> started{0};
  std::atomic<uint64_t> worker{0};
  RunMorsels(2, 2, [&](int i) {
    if (hits != nullptr) hits[i].fetch_add(1);
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();
    if (ThreadSerial() != caller) worker.store(ThreadSerial());
  });
  return worker.load();
}

// A borrowed worker is a parked thread that outlives the call: the next
// call gets the same thread back instead of starting one.
TEST(RunMorselsTest, NextCallReusesTheParkedWorker) {
  const uint64_t first = WorkerOfAWidthTwoCall();
  ASSERT_NE(first, 0u);
  EXPECT_EQ(WorkerOfAWidthTwoCall(), first);
}

// Two threads make 500 width-2 calls each at once, as two clients'
// queries do. Every index runs exactly once, and the calls share the
// parked workers: no more distinct worker threads ever run a morsel than
// the reservoir keeps parked, so no call starts a thread of its own.
TEST(RunMorselsTest, ConcurrentCallsShareTheParkedWorkers) {
  if (ResolveThreads(0) < 2) {
    GTEST_SKIP() << "one parked worker cannot serve two concurrent calls";
  }
  constexpr int kCalls = 500;
  std::vector<uint64_t> workers[2];
  std::atomic<int> hits[2][kCalls][2] = {};
  std::thread clients[2];
  for (int c = 0; c < 2; ++c) {
    clients[c] = std::thread([&, c] {
      for (int k = 0; k < kCalls; ++k) {
        workers[c].push_back(WorkerOfAWidthTwoCall(hits[c][k]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  std::vector<uint64_t> distinct;
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < kCalls; ++k) {
      EXPECT_EQ(hits[c][k][0].load(), 1) << "client " << c << " call " << k;
      EXPECT_EQ(hits[c][k][1].load(), 1) << "client " << c << " call " << k;
      ASSERT_NE(workers[c][static_cast<size_t>(k)], 0u);
    }
    distinct.insert(distinct.end(), workers[c].begin(), workers[c].end());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_LE(distinct.size(), static_cast<size_t>(ResolveThreads(0)));
}

// A forked child has none of its parent's parked workers (only the
// forking thread exists there), so its calls start their own.
TEST(RunMorselsTest, ForkedChildStartsItsOwnWorkers) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "ThreadSanitizer cannot start threads in a child forked "
                  "from a multi-threaded process";
#endif
  ASSERT_NE(WorkerOfAWidthTwoCall(), 0u);  // leaves a worker parked
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    // Handed a parked worker that does not exist, the call would wait
    // for it forever.
    alarm(10);
    _exit(WorkerOfAWidthTwoCall() != 0 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child wait status " << status;
}

// The legacy Engine::Execute(q, globals, algo, plan) overload is
// documented as the sequential path (threads = 1): per-algorithm
// ExecStats must stay deterministic, so it must never route through the
// morsel-parallel driver — even on a query wide enough to morselize.
// ParallelEvaluationCountForTesting() increments each time a pattern is
// actually split into morsels; the EvalOptions overload with
// threads=2 proves the same query DOES parallelize when asked to, so a
// regression in the counter itself cannot make this test pass vacuously.
TEST_F(ParallelEvalTest, LegacyExecuteOverloadNeverParallelizes) {
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc_->root())}}};
  auto cq = engine_.Compile("$input//item//location");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  int64_t before = ParallelEvaluationCountForTesting();
  auto legacy = engine_.Execute(*cq, globals, PatternAlgo::kNLJoin);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();
  EXPECT_EQ(ParallelEvaluationCountForTesting(), before)
      << "legacy Execute overload routed through the parallel driver";

  // The pattern parallelizes via root fan-out from the one root context
  // — the path real single-document queries take.
  auto parallel =
      engine_.Execute(*cq, globals, ParallelOpts(PatternAlgo::kNLJoin, 2));
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_GT(ParallelEvaluationCountForTesting(), before)
      << "control failed: threads=2 never reached the parallel driver";
  EXPECT_EQ(*legacy, *parallel);
}

}  // namespace
}  // namespace xqtp::exec
