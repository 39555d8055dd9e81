// Shared helpers for the benchmark binaries: lazily-built workload
// documents and compiled-query execution wrappers.
#ifndef XQTP_BENCH_BENCH_COMMON_H_
#define XQTP_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <string>

#include "engine/engine.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"

namespace xqtp::bench {

/// Shared main body for the bench binaries.
inline int BenchMain(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}

/// One engine per binary; documents and compiled queries are cached in it.
inline engine::Engine& SharedEngine() {
  static engine::Engine* e = new engine::Engine();
  return *e;
}

inline const xml::Document& MemberDoc(const std::string& name, int node_count,
                                      int max_depth, int num_tags,
                                      int plant_twigs = 0) {
  engine::Engine& e = SharedEngine();
  const xml::Document* d = e.FindDocument(name);
  if (d == nullptr) {
    workload::MemberParams p;
    p.node_count = node_count;
    p.max_depth = max_depth;
    p.num_tags = num_tags;
    p.plant_twigs = plant_twigs;
    d = e.AddDocument(name, workload::GenerateMember(p, e.interner()));
  }
  return *d;
}

inline const xml::Document& XmarkDoc(const std::string& name, double factor) {
  engine::Engine& e = SharedEngine();
  const xml::Document* d = e.FindDocument(name);
  if (d == nullptr) {
    workload::XmarkParams p;
    p.factor = factor;
    d = e.AddDocument(name, workload::GenerateXmark(p, e.interner()));
  }
  return *d;
}

/// The paper's plans: rule (g) off, so positional predicates stay
/// outside patterns as in the paper's Q3/Q4 plans. The paper
/// reproductions compile with these rather than the engine's default.
inline engine::CompileOptions PaperPlans() {
  engine::CompileOptions copts;
  copts.positional_patterns = false;
  return copts;
}

/// Compiles once, executes per iteration, reports result cardinality.
inline void RunQueryBenchmark(benchmark::State& state, const std::string& q,
                              const xml::Document& doc,
                              const exec::EvalOptions& opts,
                              engine::PlanChoice plan_choice =
                                  engine::PlanChoice::kOptimized,
                              const engine::CompileOptions& copts = {}) {
  engine::Engine& e = SharedEngine();
  auto cq = e.Compile(q, copts);
  if (!cq.ok()) {
    state.SkipWithError(cq.status().ToString().c_str());
    return;
  }
  engine::Engine::GlobalMap globals;
  for (const std::string& g : cq->GlobalNames()) {
    globals[g] = {xdm::Item(doc.root())};
  }
  size_t result_size = 0;
  for (auto _ : state) {
    auto res = e.Execute(*cq, globals, opts, plan_choice);
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    result_size = res->size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(result_size));
}

/// Algorithm-only convenience used by the existing benches: the legacy
/// sequential path (threads = 1).
inline void RunQueryBenchmark(benchmark::State& state, const std::string& q,
                              const xml::Document& doc,
                              exec::PatternAlgo algo,
                              engine::PlanChoice plan_choice =
                                  engine::PlanChoice::kOptimized,
                              const engine::CompileOptions& copts = {}) {
  exec::EvalOptions opts;
  opts.algo = algo;
  opts.threads = 1;
  RunQueryBenchmark(state, q, doc, opts, plan_choice, copts);
}

inline const char* AlgoTag(exec::PatternAlgo algo) {
  switch (algo) {
    case exec::PatternAlgo::kNLJoin:
      return "NL";
    case exec::PatternAlgo::kTwig:
      return "TJ";
    case exec::PatternAlgo::kStaircase:
      return "SC";
    case exec::PatternAlgo::kCostBased:
      return "CB";
  }
  return "?";
}

}  // namespace xqtp::bench

#endif  // XQTP_BENCH_BENCH_COMMON_H_
