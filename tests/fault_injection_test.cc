// The fault-injection sweep (common/fault_injection.h): every registered
// site is armed in turn and the full pipeline — parse, compile, execute —
// is driven through it. Each injection must surface as a clean tagged
// Status naming its site (no crash, no leak under ASan, no stuck worker
// under TSan), and a non-injected re-run must reproduce the baseline
// result bit for bit.
//
// kRegistry below is the authoritative list of fault sites:
// tools/lint.py (rule fault-site-registered) fails the build if an
// XQTP_FAULT_POINT(...) or fault::Poll(...) name in src/ is missing here.
#include <gtest/gtest.h>

#include <string>

#include "common/fault_injection.h"
#include "engine/engine.h"
#include "exec/pattern_eval.h"

namespace xqtp {
namespace {

/// Which pipeline configuration reaches a given site: the per-algorithm
/// sites need their algorithm selected, the morsel site needs the
/// parallel driver engaged.
struct SiteConfig {
  const char* site;
  exec::PatternAlgo algo;
  int threads;
};

constexpr SiteConfig kRegistry[] = {
    // Document loading.
    {"xml.parse.element", exec::PatternAlgo::kNLJoin, 1},
    // Compilation phases.
    {"core.normalize", exec::PatternAlgo::kNLJoin, 1},
    {"core.rewrite.round", exec::PatternAlgo::kNLJoin, 1},
    {"algebra.compile", exec::PatternAlgo::kNLJoin, 1},
    {"algebra.optimize.round", exec::PatternAlgo::kNLJoin, 1},
    // Plan-cache fill boundary: the injected error must flow through the
    // single-flight error-publication path and must not be cached.
    {"engine.plan_cache.fill", exec::PatternAlgo::kNLJoin, 1},
    // Execution spine.
    {"engine.execute", exec::PatternAlgo::kNLJoin, 1},
    {"exec.evaluate", exec::PatternAlgo::kNLJoin, 1},
    {"exec.fn_call", exec::PatternAlgo::kNLJoin, 1},
    // Pattern dispatch and every physical algorithm.
    {"exec.pattern.dispatch", exec::PatternAlgo::kNLJoin, 1},
    {"exec.pattern.nl", exec::PatternAlgo::kNLJoin, 1},
    {"exec.pattern.staircase", exec::PatternAlgo::kStaircase, 1},
    {"exec.pattern.twig", exec::PatternAlgo::kTwig, 1},
    // Morsel-parallel driver: a worker hits the fault mid-query and its
    // RunMorsels call must still drain.
    {"exec.parallel.morsel", exec::PatternAlgo::kNLJoin, 4},
};

/// A document whose root-step fan-out (40 person elements) morselizes
/// under parallel_min_fanout = 4, so the parallel site is reachable.
std::string BuildDocumentXml() {
  std::string xml = "<site><people>";
  for (int i = 0; i < 40; ++i) {
    std::string n = std::to_string(i);
    xml += "<person><name>p" + n + "</name><emailaddress>e" + n +
           "</emailaddress></person>";
  }
  xml += "</people></site>";
  return xml;
}

/// The query reaches the function-call, pattern, and parallel sites.
constexpr const char* kQuery =
    "fn:count($input//person[emailaddress]/name)";

/// One complete pipeline run from a fresh engine, so an injection in any
/// phase — including document parsing — is exercised every sweep step.
/// The Debug-default verifiers and the translation-validation oracle are
/// off: the oracle executes witness queries during Compile, which would
/// burn the armed injection inside the oracle instead of the pipeline
/// under test.
Result<xdm::Sequence> RunPipeline(const SiteConfig& cfg) {
  engine::EngineOptions eopts;
  eopts.verify_plans = false;
  eopts.analysis.check_equivalence = false;
  engine::Engine engine(eopts);
  XQTP_ASSIGN_OR_RETURN(const xml::Document* doc,
                        engine.LoadDocument("d", BuildDocumentXml()));
  engine::Engine::GlobalMap globals{{"input", {xdm::Item(doc->root())}}};
  exec::EvalOptions opts;
  opts.algo = cfg.algo;
  opts.threads = cfg.threads;
  opts.parallel_min_fanout = 4;
  // The serving entry point: compilation goes through the plan cache, so
  // the sweep also covers the cache-fill boundary site. The engine is
  // fresh each run — every compile is a genuine fill.
  return engine.ExecuteQuery(kQuery, globals, opts);
}

TEST(FaultInjectionSweep, EverySiteFailsCleanlyAndRecovers) {
  if (!fault::Enabled()) {
    GTEST_SKIP() << "fault points compiled out (NDEBUG build without "
                    "-DXQTP_FAULT_INJECTION=ON)";
  }
  static_assert(std::size(kRegistry) >= 10,
                "the sweep must cover at least ten sites");
  for (const SiteConfig& cfg : kRegistry) {
    SCOPED_TRACE(cfg.site);

    // Baseline with nothing armed.
    auto baseline = RunPipeline(cfg);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    ASSERT_EQ(baseline->size(), 1u);  // fn:count returns one integer

    {
      fault::ScopedFault armed(cfg.site);
      auto res = RunPipeline(cfg);
      ASSERT_GT(fault::ArmedPollCount(), 0)
          << "site was never polled — dead registry entry or unreachable "
             "configuration";
      ASSERT_FALSE(res.ok()) << "armed site did not surface an error";
      const std::string msg = res.status().ToString();
      EXPECT_NE(msg.find(fault::kTag()), std::string::npos) << msg;
      EXPECT_NE(msg.find(cfg.site), std::string::npos) << msg;
    }

    // Disarmed re-run: bit-identical to the baseline.
    auto rerun = RunPipeline(cfg);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    ASSERT_EQ(rerun->size(), baseline->size());
    for (size_t i = 0; i < rerun->size(); ++i) {
      EXPECT_TRUE((*rerun)[i] == (*baseline)[i]) << "item " << i;
    }
  }
}

// Deeper occurrences: the nth-poll knob reaches a site's second firing
// opportunity (the per-tuple fn_call site polls once per evaluation).
TEST(FaultInjectionTest, FiresOnNthPoll) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault points compiled out";
  SiteConfig cfg{"exec.evaluate", exec::PatternAlgo::kNLJoin, 1};
  fault::ScopedFault armed("exec.evaluate", /*fire_on_nth=*/2);
  auto res = RunPipeline(cfg);
  // The evaluate site is polled once per Evaluate entry; with a single
  // top-level evaluation the second poll never happens and the query
  // succeeds — the knob must not fire early.
  if (res.ok()) {
    EXPECT_EQ(fault::ArmedPollCount(), 1);
  } else {
    EXPECT_NE(res.status().ToString().find(fault::kTag()), std::string::npos);
  }
}

TEST(FaultInjectionTest, DisarmedPollsAreFree) {
  if (!fault::Enabled()) GTEST_SKIP() << "fault points compiled out";
  // Nothing armed: polls succeed and do not count.
  EXPECT_TRUE(fault::Poll("exec.evaluate").ok());
  EXPECT_TRUE(fault::Poll("no.such.site").ok());
}

}  // namespace
}  // namespace xqtp
