// Ablation study (DESIGN.md experiment E6): contribution of each rewrite
// family to plan quality and execution time. For the Q1 family and the
// Figure 4 FLWOR, each configuration disables one TPNF' rule family (or
// the algebraic detection entirely) and reports the plan statistics plus
// execution time.
#include "bench_common.h"

namespace xqtp::bench {
namespace {

struct Config {
  const char* name;
  engine::CompileOptions opts;
};

std::vector<Config> Configs() {
  std::vector<Config> configs;
  configs.push_back({"full", PaperPlans()});
  {
    engine::CompileOptions o = PaperPlans();
    o.rewrite_opts.typeswitch_rules = false;
    configs.push_back({"no-typeswitch-rules", o});
  }
  {
    engine::CompileOptions o = PaperPlans();
    o.rewrite_opts.flwor_rules = false;
    configs.push_back({"no-flwor-rules", o});
  }
  {
    engine::CompileOptions o = PaperPlans();
    o.rewrite_opts.ddo_removal = false;
    configs.push_back({"no-ddo-removal", o});
  }
  {
    engine::CompileOptions o = PaperPlans();
    o.rewrite_opts.loop_split = false;
    configs.push_back({"no-loop-split", o});
  }
  {
    engine::CompileOptions o = PaperPlans();
    o.rewrite = false;
    configs.push_back({"no-rewrites", o});
  }
  {
    engine::CompileOptions o = PaperPlans();
    o.detect_tree_patterns = false;
    configs.push_back({"no-detection", o});
  }
  return configs;
}

struct Query {
  const char* name;
  const char* text;
};

constexpr Query kQueries[] = {
    {"Q1-flwor",
     "(for $x in $input//person[emailaddress] return $x)/name"},
    {"Fig4-flwor",
     "for $x1 in $input/site, $x2 in $x1/people, "
     "$x3 in $x2/person[emailaddress] return $x3/profile/interest"},
};

void Run(benchmark::State& state, const std::string& q,
         const engine::CompileOptions& copts) {
  engine::Engine& e = SharedEngine();
  auto cq = e.Compile(q, copts);
  if (!cq.ok()) {
    state.SkipWithError(cq.status().ToString().c_str());
    return;
  }
  algebra::PlanStats stats = cq->Stats();
  const xml::Document& doc = XmarkDoc("xmark_ablation", 0.1);
  engine::Engine::GlobalMap globals;
  for (const std::string& g : cq->GlobalNames()) {
    globals[g] = {xdm::Item(doc.root())};
  }
  for (auto _ : state) {
    auto res = e.Execute(*cq, globals, exec::PatternAlgo::kStaircase);
    if (!res.ok()) {
      state.SkipWithError(res.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(res);
  }
  state.counters["pattern_ops"] = stats.tree_pattern_ops;
  state.counters["treejoin_ops"] = stats.tree_join_ops;
  state.counters["max_steps"] = stats.max_pattern_steps;
  state.counters["ddo_ops"] = stats.ddo_ops;
}

void Register() {
  for (const Query& q : kQueries) {
    for (const Config& c : Configs()) {
      std::string name = std::string("Ablation/") + q.name + "/" + c.name;
      std::string text = q.text;
      engine::CompileOptions opts = c.opts;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [text, opts](benchmark::State& s) { Run(s, text, opts); })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace xqtp::bench

int main(int argc, char** argv) {
  xqtp::bench::Register();
  return xqtp::bench::BenchMain(argc, argv);
}
