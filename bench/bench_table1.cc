// Table 1 of the paper: queries QE1..QE6 (Figure 5) evaluated with all
// three pattern algorithms (NL / TJ / SC) on MemBeR documents of depth 4
// with 100 uniformly distributed tags, at the paper's five sizes
// (2.1 / 4.3 / 6.5 / 8.7 / 11 MB).
//
// Expected shape (paper Section 5.2): NL never wins on these rooted
// patterns; SC and TJ trade places — SC leads on the simpler patterns,
// TJ on the descendant-heavy branchy ones.
#include "bench_common.h"

namespace xqtp::bench {
namespace {

struct QE {
  const char* name;
  const char* query;
};

constexpr QE kQueries[] = {
    {"QE1", "$input/desc::t01[child::t02[child::t03[child::t04]]]"},
    {"QE2", "$input/desc::t01/child::t02[1]/child::t03[child::t04]"},
    {"QE3", "$input/desc::t01[child::t02[child::t03]/child::t04[child::t03]]"},
    {"QE4", "$input/desc::t01[desc::t02[desc::t03[desc::t04]]]"},
    {"QE5", "$input/desc::t01/desc::t02[1]/desc::t03[desc::t04]"},
    {"QE6", "$input/desc::t01[desc::t02[desc::t03]/desc::t04[desc::t03]]"},
};

struct Size {
  const char* label;
  size_t bytes;
};

constexpr Size kSizes[] = {
    {"2.1MB", 2202009}, {"4.3MB", 4509716}, {"6.5MB", 6815744},
    {"8.7MB", 9122611}, {"11MB", 11534336},
};

const xml::Document& DocFor(const Size& s) {
  int nodes = workload::NodeCountForBytes(s.bytes);
  // "depth 4" in the paper counts levels below the root element; planted
  // twig instances give the QE queries matches on the otherwise uniform
  // document (see DESIGN.md).
  return MemberDoc(std::string("member_") + s.label, nodes, /*max_depth=*/5,
                   /*num_tags=*/100, /*plant_twigs=*/nodes / 2000);
}

void Register() {
  for (const QE& qe : kQueries) {
    for (const Size& size : kSizes) {
      for (exec::PatternAlgo algo :
           {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kTwig,
            exec::PatternAlgo::kStaircase}) {
        std::string name = std::string("Table1/") + qe.name + "/" +
                           AlgoTag(algo) + "/" + size.label;
        std::string query = qe.query;
        const Size* sp = &size;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query, algo, sp](benchmark::State& state) {
              RunQueryBenchmark(state, query, DocFor(*sp), algo,
                                engine::PlanChoice::kOptimized, PaperPlans());
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
