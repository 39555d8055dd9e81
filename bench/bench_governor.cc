// Governor overhead: the same XMark queries with resource governance off
// (no limits set — GovernorPoll is a thread-local load and a branch) and
// on (deadline + memory budget + cancel token, none of which trip, so
// the strided polls pay full checks: one relaxed atomic load, one
// steady_clock read, one comparison, every 32nd operator boundary and
// every 1024th pattern-inner-loop iteration). DESIGN.md documents the
// measured delta (target: < 2%).
#include <chrono>
#include <memory>

#include "bench_common.h"
#include "common/exec_stats.h"
#include "exec/governor.h"

namespace xqtp::bench {
namespace {

struct GovernorQuery {
  const char* name;
  const char* query;
};

constexpr GovernorQuery kQueries[] = {
    {"XM-person-name", "$input//person[emailaddress]/name"},
    {"XM-item-location", "$input//item//location"},
    {"XM-count-interest",
     "fn:count($input//person[emailaddress]//interest)"},
};

const xml::Document& Doc() { return XmarkDoc("xmark_governor", 0.5); }

void Register() {
  for (const GovernorQuery& q : kQueries) {
    for (int threads : {1, 4}) {
      for (bool governed : {false, true}) {
        std::string name = std::string("Governor/") + q.name + "/t" +
                           std::to_string(threads) + "/" +
                           (governed ? "on" : "off");
        std::string query = q.query;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [query, threads, governed](benchmark::State& state) {
              exec::EvalOptions opts;
              opts.algo = exec::PatternAlgo::kTwig;
              opts.threads = threads;
              if (governed) {
                // Generous limits that never trip: the benchmark pays
                // for the checks, not for an early return.
                opts.deadline = std::chrono::steady_clock::now() +
                                std::chrono::hours(24);
                opts.memory_budget_bytes = int64_t{1} << 40;
                opts.cancel_token = std::make_shared<exec::CancelToken>();
              }
              RunQueryBenchmark(state, query, Doc(), opts);
              if (governed) {
                // One untimed instrumented run: how many full checks the
                // governed configuration actually pays for (attribution
                // when the overhead delta looks off).
                engine::Engine& e = SharedEngine();
                auto cq = e.Compile(query);
                if (cq.ok()) {
                  engine::Engine::GlobalMap globals;
                  for (const std::string& g : cq->GlobalNames()) {
                    globals[g] = {xdm::Item(Doc().root())};
                  }
                  ScopedExecStats scope;
                  (void)e.Execute(*cq, globals, opts);
                  state.counters["gov_checks"] = benchmark::Counter(
                      static_cast<double>(scope.stats().governor_checks));
                }
              }
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
