// Benchmark for the positional tree-pattern extension (future work
// realized): compares the paper-mode plans (positional loops embedded in
// maps) against plans with positional predicates folded into the
// patterns, on the positional workloads of the paper's evaluation (QE2,
// QE5, and the Section 5.3 selective chain).
#include "bench_common.h"

namespace xqtp::bench {
namespace {

struct Workload {
  const char* name;
  const char* query;
  bool deep_doc;
};

constexpr Workload kWorkloads[] = {
    {"QE2", "$input/desc::t01/child::t02[1]/child::t03[child::t04]", false},
    {"QE5", "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]", false},
    {"selective-k10",
     "$input/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]",
     true},
};

const xml::Document& DocFor(const Workload& w) {
  if (w.deep_doc) return MemberDoc("member_deep_pos", 50000, 15, 1);
  return MemberDoc("member_wide_pos", 150000, 5, 100, 75);
}

void Register() {
  for (const Workload& w : kWorkloads) {
    for (bool folded : {false, true}) {
      for (exec::PatternAlgo algo :
           {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
            exec::PatternAlgo::kTwig, exec::PatternAlgo::kCostBased}) {
        std::string name = std::string("Positional/") + w.name +
                           (folded ? "/folded/" : "/paper/") + AlgoTag(algo);
        std::string query = w.query;
        const Workload* wp = &w;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query, algo, wp, folded](benchmark::State& state) {
              engine::CompileOptions copts;
              copts.positional_patterns = folded;
              RunQueryBenchmark(state, query, DocFor(*wp), algo,
                                engine::PlanChoice::kOptimized, copts);
            })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
}

}  // namespace
}  // namespace xqtp::bench

int main(int argc, char** argv) {
  xqtp::bench::Register();
  return xqtp::bench::BenchMain(argc, argv);
}
