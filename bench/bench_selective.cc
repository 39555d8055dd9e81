// Section 5.3 of the paper: XPath evaluation in an XQuery context.
// The query (/t1[1])^k for k = 5, 10, 15 on a 50,000-node, depth-15
// document where every element is named t1.
//
// The positional predicates force the plan outside the tree-pattern
// fragment: TupleTreePattern operators stay embedded in maps, so SC and
// TJ pay an index scan per step while NL only touches the first child
// chain. Expected shape: NL ≪ SC < TJ, by orders of magnitude.
#include "bench_common.h"

namespace xqtp::bench {
namespace {

const xml::Document& Doc() {
  return MemberDoc("member_deep", /*node_count=*/50000, /*max_depth=*/15,
                   /*num_tags=*/1);
}

std::string Query(int k) {
  std::string q = "$input";
  for (int i = 0; i < k; ++i) q += "/t1[1]";
  return q;
}

void Register() {
  for (int k : {5, 10, 15}) {
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kTwig,
          exec::PatternAlgo::kStaircase}) {
      std::string name = std::string("Selective/k=") + std::to_string(k) +
                         "/" + AlgoTag(algo);
      std::string query = Query(k);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [query, algo](benchmark::State& state) {
            RunQueryBenchmark(state, query, Doc(), algo,
                              engine::PlanChoice::kOptimized, PaperPlans());
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
