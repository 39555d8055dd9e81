// Paper walkthrough: reproduces, stage by stage, the compilation story of
// Section 2 of "Put a Tree Pattern in Your Algebra" for the running
// example Q1a — the normalized Core (Q1a-n), the TPNF' form (Q1-tp), the
// compiled plan (P1), and the optimized plan (P5) — then shows the plans
// the paper gives for Q2 and the treatment of Q3 and Q5.
//
//   $ ./build/examples/paper_walkthrough
#include <cstdio>

#include "algebra/printer.h"
#include "core/printer.h"
#include "engine/engine.h"

namespace {

void Stage(const char* title, const std::string& body) {
  std::printf("---- %s ----\n%s\n\n", title, body.c_str());
}

}  // namespace

int main() {
  xqtp::engine::Engine engine;

  std::printf("== Q1a: $d//person[emailaddress]/name ==\n\n");
  auto q1a = engine.Compile("$d//person[emailaddress]/name");
  if (!q1a.ok()) {
    std::fprintf(stderr, "%s\n", q1a.status().ToString().c_str());
    return 1;
  }
  Stage("normalization (the paper's Q1a-n)",
        xqtp::core::ToString(q1a->normalized(), q1a->vars(),
                             *engine.interner()));
  Stage("TPNF' rewriting (the paper's Q1-tp)",
        xqtp::core::ToString(q1a->rewritten(), q1a->vars(),
                             *engine.interner()));
  Stage("algebraic compilation (the paper's P1)",
        xqtp::algebra::ToPrettyString(q1a->plan(), q1a->vars(),
                                      *engine.interner()));
  Stage("tree-pattern detection (the paper's P5)",
        xqtp::algebra::ToPrettyString(q1a->optimized(), q1a->vars(),
                                      *engine.interner()));

  std::printf("== Q1b and Q1c reach the same plan ==\n\n");
  const char* variants[] = {
      "(for $x in $d//person[emailaddress] return $x)/name",
      "let $x := for $y in $d//person where $y/emailaddress return $y "
      "return $x/name",
  };
  for (const char* v : variants) {
    auto cq = engine.Compile(v);
    if (!cq.ok()) continue;
    std::printf("%s\n  -> %s\n\n", v,
                xqtp::algebra::ToString(cq->optimized(), cq->vars(),
                                        *engine.interner())
                    .c_str());
  }

  std::printf(
      "== Q2: two patterns connected by a selection on the name ==\n\n");
  auto q2 = engine.Compile("$d//person[name = \"John\"]/emailaddress");
  if (q2.ok()) {
    Stage("optimized plan",
          xqtp::algebra::ToPrettyString(q2->optimized(), q2->vars(),
                                        *engine.interner()));
  }

  std::printf("== Q3: the positional predicate stays outside ==\n\n");
  // The paper's plan: rule (g), on by default, would fold [1] into the
  // pattern.
  xqtp::engine::CompileOptions paper;
  paper.positional_patterns = false;
  auto q3 = engine.Compile("$d//person[1]/name", paper);
  if (q3.ok()) {
    Stage("rewritten core (note the loop-split guard)",
          xqtp::core::ToString(q3->rewritten(), q3->vars(),
                               *engine.interner()));
    Stage("optimized plan (patterns embedded in maps)",
          xqtp::algebra::ToPrettyString(q3->optimized(), q3->vars(),
                                        *engine.interner()));
  }
  std::printf("(with CompileOptions::positional_patterns, the default, the\n"
              "same query folds into a single pattern — the paper's future "
              "work)\n\n");

  std::printf("== Q5: NOT equivalent to Q1a — the patterns stay split ==\n\n");
  auto q5 =
      engine.Compile("for $x in $d//person[emailaddress] return $x/name");
  if (q5.ok()) {
    Stage("optimized plan (two cascaded patterns, no surrounding ddo)",
          xqtp::algebra::ToPrettyString(q5->optimized(), q5->vars(),
                                        *engine.interner()));
  }
  return 0;
}
