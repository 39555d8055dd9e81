// Plan explorer: shows how the compiler treats the paper's Figure 1
// queries (or a query passed on the command line) — which parts become
// TupleTreePattern operators and which operators must remain.
//
//   $ ./build/examples/plan_explorer                 # the Figure 1 corpus
//   $ ./build/examples/plan_explorer '$d//a[b]/c'    # your own query
#include <cstdio>

#include "engine/engine.h"

namespace {

constexpr const char* kFigure1[] = {
    // Q1a, Q1b, Q1c: one tree pattern, three syntaxes.
    "$d//person[emailaddress]/name",
    "(for $x in $d//person[emailaddress] return $x)/name",
    "let $x := for $y in $d//person where $y/emailaddress return $y "
    "return $x/name",
    // Q2: two tree patterns connected by a selection on the name value.
    "$d//person[name = \"John\"]/emailaddress",
    // Q3, Q4: positional predicates need special treatment.
    "$d//person[1]/name",
    "$d//person[name = \"John\"]/emailaddress[1]",
    // Q5: NOT equivalent to Q1a — two patterns composed through a map.
    "for $x in $d//person[emailaddress] return $x/name",
};

void Explore(xqtp::engine::Engine* engine, const char* query) {
  std::printf("======================================================\n");
  // The paper's plans: positional predicates stay outside patterns (Q3,
  // Q4) instead of folding into them, as they do by default.
  xqtp::engine::CompileOptions paper;
  paper.positional_patterns = false;
  auto cq = engine->Compile(query, paper);
  if (!cq.ok()) {
    std::printf("query: %s\ncompile error: %s\n", query,
                cq.status().ToString().c_str());
    return;
  }
  std::printf("%s", engine->Explain(*cq).c_str());
  xqtp::algebra::PlanStats stats = cq->Stats();
  std::printf(
      "\nplan stats: %d TupleTreePattern op(s), largest pattern %d step(s), "
      "%d navigational TreeJoin(s), %d scoped map(s), %d ddo(s)\n\n",
      stats.tree_pattern_ops, stats.max_pattern_steps, stats.tree_join_ops,
      stats.scoped_ops, stats.ddo_ops);
}

}  // namespace

int main(int argc, char** argv) {
  xqtp::engine::Engine engine;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) Explore(&engine, argv[i]);
    return 0;
  }
  std::printf("The Figure 1 corpus of \"Put a Tree Pattern in Your "
              "Algebra\":\n\n");
  for (const char* q : kFigure1) Explore(&engine, q);
  return 0;
}
