// Per-query times of the XMark corpus (workload::XmarkQueryCorpus()) on
// the document the served-query benchmark's xmark_serve workload serves:
// XMark factor 1.0, generator seed 7, parsed from its serialized text.
// Each query runs through Engine::Execute under the cost-based choice at
// threads=1, as a served request does.
//
//  - Xmark/<id>/execute times Engine::Execute alone. Its counters are the
//    result size and, from one untimed run, the tuples materialized and
//    the pattern evaluations.
//  - Xmark/<id>/serialize times serializing that result, each node item
//    through xml::Serialize and each atomic through its string value, one
//    line per item, as bench/e2e/bench_e2e.cc serializes a response.
//    Its counter is the serialized bytes.
//
// The sum of the execute times is the corpus time EXPERIMENTS.md quotes.
#include <optional>
#include <string>
#include <utility>

#include "bench_common.h"
#include "common/exec_stats.h"
#include "workload/xmark_queries.h"
#include "xml/serializer.h"

namespace xqtp::bench {
namespace {

const xml::Document* ServeDoc() {
  engine::Engine& e = SharedEngine();
  const xml::Document* d = e.FindDocument("xmark_serve");
  if (d != nullptr) return d;
  StringInterner scratch;
  workload::XmarkParams p;
  p.factor = 1.0;
  const std::string text =
      xml::Serialize(workload::GenerateXmark(p, &scratch)->root());
  auto loaded = e.LoadDocument("xmark_serve", text);
  return loaded.ok() ? *loaded : nullptr;
}

void SerializeResult(const xdm::Sequence& seq, std::string* out) {
  out->clear();
  for (const xdm::Item& item : seq) {
    if (item.IsNode()) {
      out->append(xml::Serialize(item.node()));
    } else {
      out->append(item.StringValue());
    }
    out->push_back('\n');
  }
}

exec::EvalOptions ServeOptions() {
  exec::EvalOptions opts;
  opts.algo = exec::PatternAlgo::kCostBased;
  opts.threads = 1;
  return opts;
}

/// Compiles `query` against the serve document; false (with the state
/// skipped) on any failure.
bool Prepare(benchmark::State& state, const std::string& query,
             std::optional<engine::CompiledQuery>* cq,
             engine::Engine::GlobalMap* globals) {
  const xml::Document* doc = ServeDoc();
  if (doc == nullptr) {
    state.SkipWithError("the xmark_serve document did not parse");
    return false;
  }
  auto compiled = SharedEngine().Compile(query);
  if (!compiled.ok()) {
    state.SkipWithError(compiled.status().ToString().c_str());
    return false;
  }
  cq->emplace(std::move(compiled).value());
  (*globals)["input"] = {xdm::Item(doc->root())};
  return true;
}

void Execute(benchmark::State& state, const std::string& query) {
  std::optional<engine::CompiledQuery> cq;
  engine::Engine::GlobalMap globals;
  if (!Prepare(state, query, &cq, &globals)) return;
  engine::Engine& e = SharedEngine();
  const exec::EvalOptions opts = ServeOptions();
  size_t results = 0;
  for (auto _ : state) {
    auto res = e.Execute(*cq, globals, opts);
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    results = res->size();
    benchmark::DoNotOptimize(res);
  }
  ScopedExecStats scope;
  if (!e.Execute(*cq, globals, opts).ok()) return;
  state.counters["results"] = static_cast<double>(results);
  state.counters["tuples"] =
      static_cast<double>(scope.stats().tuples_materialized);
  state.counters["pattern_evals"] =
      static_cast<double>(scope.stats().pattern_evals);
}

void Serialize(benchmark::State& state, const std::string& query) {
  std::optional<engine::CompiledQuery> cq;
  engine::Engine::GlobalMap globals;
  if (!Prepare(state, query, &cq, &globals)) return;
  auto res = SharedEngine().Execute(*cq, globals, ServeOptions());
  if (!res.ok()) {
    state.SkipWithError(res.status().ToString().c_str());
    return;
  }
  std::string bytes;
  for (auto _ : state) {
    SerializeResult(*res, &bytes);
    benchmark::DoNotOptimize(bytes.data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = static_cast<double>(bytes.size());
}

void Register() {
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    const std::string text = q.text;
    benchmark::RegisterBenchmark(
        ("Xmark/" + q.id + "/execute").c_str(),
        [text](benchmark::State& state) { Execute(state, text); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(
        ("Xmark/" + q.id + "/serialize").c_str(),
        [text](benchmark::State& state) { Serialize(state, text); })
        ->Unit(benchmark::kMicrosecond);
  }
}

}  // namespace
}  // namespace xqtp::bench

int main(int argc, char** argv) {
  xqtp::bench::Register();
  return xqtp::bench::BenchMain(argc, argv);
}
