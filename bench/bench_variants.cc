// Section 5.1 of the paper: compile the 20 syntactic variants of the
// Figure 4 path and verify (and time) that they all reach one plan. Also
// measures execution of a representative variant on the old and new
// engines, which is the data behind Figure 4's robustness claim.
#include <set>

#include "algebra/printer.h"
#include "bench_common.h"
#include "workload/variants.h"

namespace xqtp::bench {
namespace {

void CompileVariant(benchmark::State& state, int index) {
  std::vector<std::string> variants = workload::GeneratePathVariants(20);
  const std::string& q = variants[static_cast<size_t>(index)];
  engine::Engine& e = SharedEngine();
  int patterns = 0;
  for (auto _ : state) {
    auto cq = e.Compile(q, PaperPlans());
    if (!cq.ok()) {
      state.SkipWithError(cq.status().ToString().c_str());
      return;
    }
    patterns = cq->Stats().tree_pattern_ops;
    benchmark::DoNotOptimize(cq);
  }
  state.counters["patterns"] = patterns;
}

void ExecuteVariant(benchmark::State& state, int index,
                    bool detect_patterns) {
  std::vector<std::string> variants = workload::GeneratePathVariants(20);
  engine::CompileOptions copts = PaperPlans();
  copts.detect_tree_patterns = detect_patterns;
  RunQueryBenchmark(state, variants[static_cast<size_t>(index)],
                    XmarkDoc("xmark_variants", 0.1),
                    exec::PatternAlgo::kStaircase,
                    engine::PlanChoice::kOptimized, copts);
}

void Register() {
  // Sanity gate, printed before the benchmarks: all 20 variants yield one
  // distinct plan.
  {
    engine::Engine& e = SharedEngine();
    std::set<std::string> plans;
    for (const std::string& q : workload::GeneratePathVariants(20)) {
      auto cq = e.Compile(q, PaperPlans());
      if (cq.ok()) {
        plans.insert(
            algebra::ToString(cq->optimized(), cq->vars(), *e.interner()));
      }
    }
    std::printf("# Variants sanity: %zu distinct plan(s) across 20 variants"
                " (expected 1)\n",
                plans.size());
  }
  for (int i : {0, 4, 9, 14, 19}) {
    benchmark::RegisterBenchmark(
        ("Variants/compile/v" + std::to_string(i)).c_str(),
        [i](benchmark::State& s) { CompileVariant(s, i); })
        ->Unit(benchmark::kMicrosecond);
  }
  for (int i : {0, 9, 19}) {
    benchmark::RegisterBenchmark(
        ("Variants/exec-rewritten/v" + std::to_string(i)).c_str(),
        [i](benchmark::State& s) { ExecuteVariant(s, i, true); })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("Variants/exec-oldengine/v" + std::to_string(i)).c_str(),
        [i](benchmark::State& s) { ExecuteVariant(s, i, false); })
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace xqtp::bench

int main(int argc, char** argv) {
  xqtp::bench::Register();
  return xqtp::bench::BenchMain(argc, argv);
}
