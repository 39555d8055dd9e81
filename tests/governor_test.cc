// Query resource governance (exec/governor.h): deadlines, cooperative
// cancellation, and memory budgets must interrupt a running query at the
// next check — at 1 thread and under the morsel-parallel driver — leave
// the engine reusable afterward, and record their telemetry in ExecStats;
// the Core interpreter, which checks none of them, refuses them.
// The recursion-depth bounds (XML parser, normalizer, rewriter) ride
// along: adversarial nesting returns kResourceExhausted, never a stack
// overflow.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/exec_stats.h"
#include "core/ast.h"
#include "core/rewrite.h"
#include "engine/engine.h"
#include "exec/evaluator.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "exec/tuple.h"
#include "pattern/tree_pattern.h"
#include "workload/xmark_gen.h"
#include "xml/parser.h"

namespace xqtp::exec {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr PatternAlgo kAllAlgos[] = {
    PatternAlgo::kNLJoin,
    PatternAlgo::kStaircase,
    PatternAlgo::kTwig,
};

/// A quadratic self-join over the XMark people: each of the ~N^2 loop
/// iterations evaluates tree patterns, so at factor 0.2 (~500 persons,
/// ~250k iterations) it runs for hundreds of milliseconds even in a
/// Release build — long enough that a 10ms deadline or a mid-query
/// cancel always lands while it is working, at any thread count.
constexpr const char* kHeavyQuery =
    "for $a in $input//person, $b in $input//person "
    "where $a/name = $b/name return $a/emailaddress";

/// A cross product whose output grows quadratically: ~N^2 materialized
/// items blow through a 1 MiB accounted-byte budget early in the loop.
constexpr const char* kCrossProductQuery =
    "for $a in $input//item, $b in $input//item return $b";

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::XmarkParams p;
    p.factor = 0.2;
    doc_ = engine_.AddDocument("x",
                               workload::GenerateXmark(p, engine_.interner()));
    globals_ = {{"input", {xdm::Item(doc_->root())}}};
  }

  static EvalOptions Opts(PatternAlgo algo, int threads) {
    EvalOptions opts;
    opts.algo = algo;
    opts.threads = threads;
    opts.parallel_min_fanout = 4;  // morselize even small fan-outs
    return opts;
  }

  engine::Engine engine_;
  const xml::Document* doc_;
  engine::Engine::GlobalMap globals_;
};

TEST_F(GovernorTest, DeadlineExceededAtOneAndEightThreads) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  for (int threads : {1, 8}) {
    EvalOptions opts = Opts(PatternAlgo::kNLJoin, threads);
    opts.deadline = steady_clock::now() + milliseconds(10);
    auto res = engine_.Execute(*cq, globals_, opts);
    ASSERT_FALSE(res.ok()) << "threads=" << threads;
    EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded)
        << "threads=" << threads << ": " << res.status().ToString();
  }
}

TEST_F(GovernorTest, ExpiredDeadlineTripsBeforeAnyWork) {
  auto cq = engine_.Compile("$input//person[emailaddress]/name");
  ASSERT_TRUE(cq.ok());
  EvalOptions opts = Opts(PatternAlgo::kTwig, 1);
  opts.deadline = steady_clock::now() - milliseconds(1);
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
  // The verdict surfaced at the first checks, not after deep evaluation.
  EXPECT_GT(scope.stats().governor_checks, 0);
  EXPECT_LT(scope.stats().governor_checks, 100);
}

TEST_F(GovernorTest, PreCancelledTokenTripsWithinBoundedChecks) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok());
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  EvalOptions opts = Opts(PatternAlgo::kNLJoin, 1);
  opts.cancel_token = token;
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  EXPECT_GT(scope.stats().governor_checks, 0);
  EXPECT_LT(scope.stats().governor_checks, 100);
}

// The cancellation race: a separate thread cancels mid-query, for every
// pattern algorithm at 1, 2, and 8 threads. The query must return
// kCancelled (the heavy query cannot finish first), the borrowed workers
// must drain cleanly, and the engine must run a normal query afterward.
TEST_F(GovernorTest, CrossThreadCancelMidQuery) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok());
  auto sanity = engine_.Compile("fn:count($input//person[emailaddress])");
  ASSERT_TRUE(sanity.ok());
  for (PatternAlgo algo : kAllAlgos) {
    for (int threads : {1, 2, 8}) {
      auto token = std::make_shared<CancelToken>();
      EvalOptions opts = Opts(algo, threads);
      opts.cancel_token = token;
      std::thread canceller([token] {
        std::this_thread::sleep_for(milliseconds(10));
        token->Cancel();
      });
      auto res = engine_.Execute(*cq, globals_, opts);
      canceller.join();
      ASSERT_FALSE(res.ok())
          << PatternAlgoName(algo) << " t" << threads
          << ": heavy query finished before the cancel landed";
      EXPECT_EQ(res.status().code(), StatusCode::kCancelled)
          << PatternAlgoName(algo) << " t" << threads << ": "
          << res.status().ToString();
      // Reusable afterward: same engine, fresh options, normal query.
      auto after = engine_.Execute(*sanity, globals_, Opts(algo, threads));
      ASSERT_TRUE(after.ok())
          << PatternAlgoName(algo) << " t" << threads << ": "
          << after.status().ToString();
    }
  }
}

TEST_F(GovernorTest, MemoryBudgetTripsOnCrossProduct) {
  auto cq = engine_.Compile(kCrossProductQuery);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EvalOptions opts = Opts(PatternAlgo::kNLJoin, 1);
  opts.memory_budget_bytes = 1 << 20;  // 1 MiB
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  // The high-water mark was recorded and is near the budget (the trip
  // happens at the first charge crossing it).
  EXPECT_GT(scope.stats().peak_memory_bytes, 0);
}

TEST_F(GovernorTest, WithinBudgetQuerySucceedsAndRecordsStats) {
  auto cq = engine_.Compile("$input//person[emailaddress]/name");
  ASSERT_TRUE(cq.ok());
  auto ref = engine_.Execute(*cq, globals_, Opts(PatternAlgo::kTwig, 1));
  ASSERT_TRUE(ref.ok());
  EvalOptions opts = Opts(PatternAlgo::kTwig, 1);
  opts.deadline = steady_clock::now() + std::chrono::hours(1);
  opts.memory_budget_bytes = 1LL << 30;
  ScopedExecStats scope;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  // Governed and ungoverned runs agree bit for bit.
  ASSERT_EQ(res->size(), ref->size());
  for (size_t i = 0; i < res->size(); ++i) {
    EXPECT_TRUE((*res)[i] == (*ref)[i]) << "item " << i;
  }
  EXPECT_GT(scope.stats().governor_checks, 0);
  EXPECT_GT(scope.stats().peak_memory_bytes, 0);
}

TEST_F(GovernorTest, CancelledParallelRunLeavesPoolReusable) {
  auto cq = engine_.Compile(kHeavyQuery);
  ASSERT_TRUE(cq.ok());
  auto token = std::make_shared<CancelToken>();
  token->Cancel();
  EvalOptions opts = Opts(PatternAlgo::kStaircase, 4);
  opts.cancel_token = token;
  auto res = engine_.Execute(*cq, globals_, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kCancelled);
  // A parallel query right after must morselize and succeed.
  auto cq2 = engine_.Compile("$input//person[emailaddress]//interest");
  ASSERT_TRUE(cq2.ok());
  auto after = engine_.Execute(*cq2, globals_, Opts(PatternAlgo::kStaircase, 4));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
}

// No PlanChoice may drop a limit silently. The plan evaluators return
// each limit's status; the Core interpreter polls no governor, so
// Execute refuses every limit there with InvalidArgument.
TEST_F(GovernorTest, EveryPlanChoiceEnforcesOrRefusesEachLimit) {
  auto cq = engine_.Compile("$input//item//name");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  struct Limit {
    const char* name;
    StatusCode code;
    void (*set)(EvalOptions*);
  };
  const Limit limits[] = {
      {"expired deadline", StatusCode::kDeadlineExceeded,
       [](EvalOptions* o) {
         o->deadline = steady_clock::now() - milliseconds(1);
       }},
      {"cancelled token", StatusCode::kCancelled,
       [](EvalOptions* o) {
         o->cancel_token = std::make_shared<CancelToken>();
         o->cancel_token->Cancel();
       }},
      {"64-byte budget", StatusCode::kResourceExhausted,
       [](EvalOptions* o) { o->memory_budget_bytes = 64; }},
  };
  const struct {
    const char* name;
    engine::PlanChoice choice;
  } plans[] = {{"optimized", engine::PlanChoice::kOptimized},
               {"unoptimized", engine::PlanChoice::kUnoptimized},
               {"core-interp", engine::PlanChoice::kCoreInterp}};
  for (const auto& plan : plans) {
    // Unlimited, every choice answers.
    auto free_run =
        engine_.Execute(*cq, globals_, Opts(PatternAlgo::kNLJoin, 1),
                        plan.choice);
    ASSERT_TRUE(free_run.ok()) << plan.name << ": "
                               << free_run.status().ToString();
    ASSERT_FALSE(free_run->empty()) << plan.name;
    for (const Limit& limit : limits) {
      EvalOptions opts = Opts(PatternAlgo::kNLJoin, 1);
      limit.set(&opts);
      auto res = engine_.Execute(*cq, globals_, opts, plan.choice);
      ASSERT_FALSE(res.ok()) << plan.name << " under " << limit.name
                             << " returned " << res->size() << " items";
      const StatusCode want =
          plan.choice == engine::PlanChoice::kCoreInterp
              ? StatusCode::kInvalidArgument
              : limit.code;
      EXPECT_EQ(res.status().code(), want)
          << plan.name << " under " << limit.name << ": "
          << res.status().ToString();
    }
  }
}

TEST_F(GovernorTest, CompileTimeDeadline) {
  engine::CompileOptions copts;
  copts.deadline = steady_clock::now() - milliseconds(1);
  auto cq = engine_.Compile(kHeavyQuery, copts);
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kDeadlineExceeded)
      << cq.status().ToString();
}

// ---- Recursion-depth bounds (satellite) ------------------------------------

// A loop-lifted pattern evaluation (exec::EvalPatternLifted) over one
// 2,000-row batch is a single call that runs as long as 2,000 per-row
// evaluations did, so it must stop on each governor limit by itself.
class LiftedGovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string xml = "<r>";
    for (int i = 0; i < kRows; ++i) xml += "<a><b/></a>";
    xml += "</r>";
    auto doc = engine_.LoadDocument("rows", xml);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    Symbol dot = engine_.interner()->Intern("dot");
    tp_ = pattern::MakeSingleStep(
        dot, Axis::kChild, NodeTest::Name(engine_.interner()->Intern("b")),
        engine_.interner()->Intern("out"));
    TupleColumn col;
    col.field = dot;
    for (const xml::Node* a :
         (*doc)->ElementsByTag(engine_.interner()->Intern("a"))) {
      col.values.emplace_back(a);
    }
    ASSERT_EQ(col.values.size(), static_cast<size_t>(kRows));
    batch_ = TupleBatch(kRows);
    batch_.AddOwnedColumn(std::move(col));
  }

  /// The lifted evaluation's status under a governor with `limits`, for
  /// every algorithm.
  void ExpectTrips(const GovernorLimits& limits, StatusCode code) {
    for (PatternAlgo algo : kAllAlgos) {
      QueryGovernor governor(limits);
      ScopedGovernor install(&governor);
      auto lifted = EvalPatternLifted(tp_, batch_, algo);
      ASSERT_FALSE(lifted.ok()) << PatternAlgoName(algo);
      EXPECT_EQ(lifted.status().code(), code)
          << PatternAlgoName(algo) << ": " << lifted.status().ToString();
    }
  }

  static constexpr int kRows = 2000;
  engine::Engine engine_;
  pattern::TreePattern tp_;
  TupleBatch batch_;
};

TEST_F(LiftedGovernorTest, UngovernedEvaluationCompletes) {
  auto lifted = EvalPatternLifted(tp_, batch_, PatternAlgo::kNLJoin);
  ASSERT_TRUE(lifted.ok()) << lifted.status().ToString();
  EXPECT_EQ(lifted->nodes.size(), static_cast<size_t>(kRows));
}

TEST_F(LiftedGovernorTest, ExpiredDeadlineStopsTheLift) {
  GovernorLimits limits;
  limits.deadline = steady_clock::now() - milliseconds(1);
  ExpectTrips(limits, StatusCode::kDeadlineExceeded);
}

TEST_F(LiftedGovernorTest, CancelledTokenStopsTheLift) {
  GovernorLimits limits;
  limits.cancel_token = std::make_shared<CancelToken>();
  limits.cancel_token->Cancel();
  ExpectTrips(limits, StatusCode::kCancelled);
}

TEST_F(LiftedGovernorTest, SmallBudgetTripsOnLiftedState) {
  GovernorLimits limits;
  limits.memory_budget_bytes = 16 * 1024;  // below 2,000 rows' state
  ExpectTrips(limits, StatusCode::kResourceExhausted);
}

TEST(DepthBoundsTest, XmlParserRejectsPathologicalNesting) {
  std::string open, close;
  for (int i = 0; i < 1100; ++i) {
    open += "<a>";
    close += "</a>";
  }
  StringInterner interner;
  auto doc = xml::Parse(open + close, &interner);
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(doc.status().ToString().find("depth"), std::string::npos)
      << doc.status().ToString();
}

TEST(DepthBoundsTest, XmlParserAcceptsReasonableNesting) {
  std::string open, close;
  for (int i = 0; i < 500; ++i) {
    open += "<a>";
    close += "</a>";
  }
  StringInterner interner;
  auto doc = xml::Parse(open + close, &interner);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
}

TEST(DepthBoundsTest, NormalizerRejectsDeepExpressionNesting) {
  // A 1101-term additive chain: the surface parser builds it iteratively
  // (left-deep AST, O(1) parser stack), so the normalizer's recursion is
  // the first place the 1000-level cap can and must fire.
  std::string query = "1";
  for (int i = 0; i < 1100; ++i) query += " + 1";
  engine::Engine engine;
  auto cq = engine.Compile(query);
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kResourceExhausted)
      << cq.status().ToString();
  EXPECT_NE(cq.status().ToString().find("depth"), std::string::npos);
}

TEST(DepthBoundsTest, RewriterRejectsDeepCoreTrees) {
  // Build a 2600-deep Core let-chain iteratively (no recursion in the
  // test either) and hand it straight to the rewriter.
  core::VarTable vars;
  core::VarId v = vars.Fresh("x");
  core::CoreExprPtr e = core::MakeVar(v);
  for (int i = 0; i < 2600; ++i) {
    e = core::MakeLet(v, core::MakeLiteral(xdm::Item(int64_t{1})),
                      std::move(e));
  }
  core::RewriteOptions ropts;
  ropts.verify = false;  // the verifier recurses; the bound must fire first
  auto res = core::RewriteToTPNF(std::move(e), &vars, ropts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
}

}  // namespace
}  // namespace xqtp::exec
