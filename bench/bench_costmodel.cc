// Cost-model benchmark (extension of the paper's conclusion): compares
// every fixed algorithm against the cost-based per-operator choice across
// the archetype workloads of Section 5. A good cost model should track
// the per-archetype winner, never the per-archetype loser.
#include "bench_common.h"

namespace xqtp::bench {
namespace {

struct Archetype {
  const char* name;
  const char* query;
  bool deep_doc;
};

constexpr Archetype kArchetypes[] = {
    {"rooted-chain", "$input/desc::t01[child::t02[child::t03[child::t04]]]",
     false},
    {"branchy-desc",
     "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]", false},
    {"positional", "$input/desc::t01/child::t02[1]/child::t03[child::t04]",
     false},
    {"selective-chain",
     "$input/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]/t1[1]",
     true},
};

const xml::Document& DocFor(const Archetype& a) {
  if (a.deep_doc) {
    return MemberDoc("member_deep_cb", 50000, 15, 1);
  }
  return MemberDoc("member_wide_cb", 150000, 5, 100, 75);
}

void Register() {
  for (const Archetype& a : kArchetypes) {
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
          exec::PatternAlgo::kTwig, exec::PatternAlgo::kCostBased}) {
      std::string name =
          std::string("CostModel/") + a.name + "/" + AlgoTag(algo);
      std::string query = a.query;
      const Archetype* ap = &a;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [query, algo, ap](benchmark::State& state) {
            RunQueryBenchmark(state, query, DocFor(*ap), algo);
          })
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
