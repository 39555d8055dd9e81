// Figure 6 of the paper: XMark path queries in which child steps are
// replaced by descendant steps without changing the result, per
// algorithm. Expected shape: SC and TJ handle the descendant forms
// gracefully (often better than the long child chains), NL does not win.
#include "bench_common.h"

namespace xqtp::bench {
namespace {

struct XmarkQuery {
  const char* name;
  const char* child_form;
  const char* desc_form;
};

constexpr XmarkQuery kQueries[] = {
    {"XM-name", "$input/site/people/person/name", "$input//person//name"},
    {"XM-increase",
     "$input/site/open_auctions/open_auction/bidder/increase",
     "$input//open_auction//increase"},
    {"XM-price", "$input/site/closed_auctions/closed_auction/price",
     "$input//closed_auction//price"},
    {"XM-location", "$input/site/regions/*/item/location",
     "$input//item//location"},
    {"XM-interest",
     "$input/site/people/person[emailaddress]/profile/interest",
     "$input//person[emailaddress]//interest"},
};

const xml::Document& Doc() { return XmarkDoc("xmark_fig6", 0.2); }

void Register() {
  for (const XmarkQuery& q : kQueries) {
    for (bool descendant : {false, true}) {
      for (exec::PatternAlgo algo :
           {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kTwig,
            exec::PatternAlgo::kStaircase}) {
        std::string name = std::string("Fig6/") + q.name +
                           (descendant ? "/descendant/" : "/child/") +
                           AlgoTag(algo);
        std::string query = descendant ? q.desc_form : q.child_form;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query, algo](benchmark::State& state) {
              RunQueryBenchmark(state, query, Doc(), algo,
                                engine::PlanChoice::kOptimized,
                                PaperPlans());
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
