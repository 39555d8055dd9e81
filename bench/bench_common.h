// Shared helpers for the benchmark binaries: lazily-built workload
// documents and compiled-query execution wrappers.
#ifndef XQTP_BENCH_BENCH_COMMON_H_
#define XQTP_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/exec_stats.h"
#include "engine/engine.h"
#include "exec/parallel.h"
#include "workload/member_gen.h"
#include "workload/xmark_gen.h"

namespace xqtp::bench {

// ---------------------------------------------------------------------------
// Benchmark-JSON perf trajectory: every bench binary accepts
// --json=<path> (stripped before google-benchmark sees the argv) and, when
// given, appends one record per executed query benchmark:
//   {"bench": ..., "query": ..., "algo": ..., "threads": N,
//    "variant": ..., "ns": mean-per-iteration,
//    "nodes_visited": exact-counter}
// ci/check.sh runs a bounded smoke bench with this flag to drop
// BENCH_smoke.json at the repo root.
//
// "variant" distinguishes records that share (bench, query, algo, threads)
// but differ in compile configuration — e.g. bench_plan_props measures the
// same query with property inference on and off. Benches that don't vary
// the compile leave it empty.

struct JsonRecord {
  std::string bench;
  std::string query;
  std::string algo;
  int threads = 1;
  std::string variant;
  double ns = 0;
  int64_t nodes_visited = 0;
};

inline std::vector<JsonRecord>& JsonRecords() {
  static auto* records = new std::vector<JsonRecord>();
  return *records;
}

inline std::string& JsonPath() {
  static auto* path = new std::string();
  return *path;
}

/// Basename of the running bench binary; the "bench" field of every
/// record (the installed google-benchmark predates State::name()).
inline std::string& BenchName() {
  static auto* name = new std::string("bench");
  return *name;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Removes our --json=<path> flag from argv (google-benchmark rejects
/// flags it does not know) and remembers the path.
inline void StripJsonFlag(int* argc, char** argv) {
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      JsonPath() = argv[i] + 7;
      continue;
    }
    argv[w++] = argv[i];
  }
  *argc = w;
}

inline void WriteJsonRecords() {
  if (JsonPath().empty()) return;
  std::ofstream out(JsonPath());
  out << "[\n";
  const std::vector<JsonRecord>& records = JsonRecords();
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "  {\"bench\": \"" << JsonEscape(r.bench) << "\", \"query\": \""
        << JsonEscape(r.query) << "\", \"algo\": \"" << JsonEscape(r.algo)
        << "\", \"threads\": " << r.threads << ", \"variant\": \""
        << JsonEscape(r.variant) << "\", \"ns\": " << r.ns
        << ", \"nodes_visited\": " << r.nodes_visited << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
}

/// Shared main body for the bench binaries: strips --json, runs the
/// registered benchmarks, writes the JSON trajectory if requested.
inline int BenchMain(int argc, char** argv) {
  if (argc > 0) {
    std::string path = argv[0];
    size_t slash = path.find_last_of('/');
    BenchName() = slash == std::string::npos ? path : path.substr(slash + 1);
  }
  StripJsonFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  WriteJsonRecords();
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

/// Compiles once, executes per iteration, reports result cardinality.
/// With a JSON path set (--json=), also appends a perf-trajectory record
/// with the mean per-iteration wall time and the exact nodes_visited
/// counter of one instrumented (untimed) execution.
inline void RunQueryBenchmark(benchmark::State& state, const std::string& q,
                              const xml::Document& doc,
                              const exec::EvalOptions& opts,
                              engine::PlanChoice plan_choice =
                                  engine::PlanChoice::kOptimized,
                              const engine::CompileOptions& copts = {},
                              const std::string& variant = {}) {
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
  double total_ns = 0;
  int64_t iters = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    auto res = e.Execute(*cq, globals, opts, plan_choice);
    auto t1 = std::chrono::steady_clock::now();
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    total_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    ++iters;
    result_size = res->size();
    benchmark::DoNotOptimize(res);
  }
  state.counters["results"] =
      benchmark::Counter(static_cast<double>(result_size));
  if (!JsonPath().empty() && iters > 0) {
    ScopedExecStats scope;
    (void)e.Execute(*cq, globals, opts, plan_choice);
    JsonRecord r;
    r.bench = BenchName();
    r.query = q;
    r.algo = exec::PatternAlgoName(opts.algo);
    r.threads = exec::ThreadPool::ResolveThreads(opts.threads);
    r.variant = variant;
    r.ns = total_ns / static_cast<double>(iters);
    r.nodes_visited = scope.stats().nodes_visited;
    // google-benchmark calls the function more than once (iteration
    // estimation); keep only the final, longest-running record.
    for (JsonRecord& existing : JsonRecords()) {
      if (existing.bench == r.bench && existing.query == r.query &&
          existing.algo == r.algo && existing.threads == r.threads &&
          existing.variant == r.variant) {
        existing = std::move(r);
        return;
      }
    }
    JsonRecords().push_back(std::move(r));
  }
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
