// Morsel-parallel driver scaling: low-selectivity XMark patterns per
// thread count. threads=1 is the plain sequential path; threads>=2 routes
// through exec/parallel.h, whose root fan-out expands the first step's
// candidates straight from the per-tag index instead of navigating the
// whole tree — so the driver wins even before it wins from parallelism,
// and scales further with cores.
//
// Thread counts here are *requested* counts; the driver clamps the
// effective width to the available morsel supply (exec::
// ClampParallelThreads), so on this 0.5-factor document t=4 and t=8 run
// at the clamped width instead of borrowing parked workers that would
// starve — the t>=4 rows must not regress above the t=2 row
// (tests/parallel_eval_test.cc pins the clamp arithmetic).
#include "bench_common.h"

namespace xqtp::bench {
namespace {

struct ParallelQuery {
  const char* name;
  const char* query;
};

// Low-selectivity patterns: matches are a small slice of the document, so
// the index-driven fan-out skips most of the tree the sequential NLJoin
// has to walk.
constexpr ParallelQuery kQueries[] = {
    {"XM-location", "$input//location"},
    {"XM-item-location", "$input//item//location"},
    {"XM-interest", "$input//person[emailaddress]//interest"},
};

const xml::Document& Doc() { return XmarkDoc("xmark_parallel", 0.5); }

void Register() {
  for (const ParallelQuery& q : kQueries) {
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase}) {
      for (int threads : {1, 2, 4, 8}) {
        std::string name = std::string("Parallel/") + q.name + "/t" +
                           std::to_string(threads) + "/" + AlgoTag(algo);
        std::string query = q.query;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query, algo, threads](benchmark::State& state) {
              exec::EvalOptions opts;
              opts.algo = algo;
              opts.threads = threads;
              RunQueryBenchmark(state, query, Doc(), opts);
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
