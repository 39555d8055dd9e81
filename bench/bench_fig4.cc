// Figure 4 of the paper: a path expression written as a FLWOR, evaluated
// with and without the rewrites, over growing XMark documents.
//
//  - "OldEngine": tree-pattern detection disabled; the plan keeps nested
//    maps with navigational TreeJoins (syntax-dependent plans).
//  - "NL/TJ/SC": the rewritten engine; the FLWOR collapses to one
//    TupleTreePattern executed by the chosen algorithm.
//
// Expected shape: the rewritten engine wins and scales better; the old
// engine's slope is steeper.
#include "bench_common.h"

namespace xqtp::bench {
namespace {

// The Section 5.1 FLWOR form of the Figure 4 path.
constexpr const char* kFlworQuery =
    "for $x1 in $input/site, "
    "    $x2 in $x1/people, "
    "    $x3 in $x2/person[emailaddress] "
    "return $x3/profile/interest";

struct Scale {
  const char* label;
  double factor;
};

constexpr Scale kScales[] = {
    {"xs", 0.02}, {"s", 0.04}, {"m", 0.08}, {"l", 0.16}, {"xl", 0.32},
};

void Register() {
  for (const Scale& scale : kScales) {
    const Scale* sp = &scale;
    // Old engine: no TPNF' rewrites and no TupleTreePattern detection —
    // the plan keeps the full normalization output (per-step ddo calls,
    // focus bookkeeping, typeswitches) evaluated navigationally.
    benchmark::RegisterBenchmark(
        (std::string("Fig4/OldEngine/") + scale.label).c_str(),
        [sp](benchmark::State& state) {
          engine::CompileOptions copts = PaperPlans();
          copts.rewrite = false;
          copts.detect_tree_patterns = false;
          RunQueryBenchmark(state, kFlworQuery,
                            XmarkDoc(std::string("xmark_") + sp->label,
                                     sp->factor),
                            exec::PatternAlgo::kNLJoin,
                            engine::PlanChoice::kOptimized, copts);
        })
        ->Unit(benchmark::kMillisecond);
    for (exec::PatternAlgo algo :
         {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kTwig,
          exec::PatternAlgo::kStaircase}) {
      benchmark::RegisterBenchmark(
          (std::string("Fig4/Rewritten-") + AlgoTag(algo) + "/" +
           scale.label)
              .c_str(),
          [sp, algo](benchmark::State& state) {
            RunQueryBenchmark(state, kFlworQuery,
                              XmarkDoc(std::string("xmark_") + sp->label,
                                       sp->factor),
                              algo, engine::PlanChoice::kOptimized,
                              PaperPlans());
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
