// Grammar-fuzzing driver for the translation-validation and
// cross-evaluator oracles: generates random queries from the fragment
// grammar (analysis/qgen.h), compiles each one with the per-rule
// equivalence oracle armed, and differentially executes every compiled
// query through all evaluation routes (Core interpreter, unoptimized
// plan, optimized plan x all three pattern algorithms) over the witness
// corpus. Failures are shrunk (query first, then witness document) and
// saved as replayable artifacts.
//
// Usage:
//   equiv_fuzz [--iters N] [--seed S] [--artifacts DIR] [--max-docs K]
//              [--quiet]
//   equiv_fuzz --replay FILE
//
// Exit code 0 iff no divergence was found (for --replay: iff the saved
// failure no longer reproduces). The last stdout line is always a
// machine-greppable summary:
//   equiv_fuzz: iters=... seed=... compiled=... compile_errors=...
//               divergences=... artifacts=...
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/cross_check.h"
#include "analysis/equiv_checker.h"
#include "analysis/qgen.h"
#include "analysis/witness.h"
#include "engine/engine.h"

namespace {

using namespace xqtp;  // NOLINT(google-build-using-namespace): tool main

struct Args {
  int iters = 100;
  uint64_t seed = 1;
  std::string artifacts_dir = "fuzz-artifacts";
  int max_docs = 0;  // 0 = whole corpus
  bool quiet = false;
  std::string replay;
};

/// Per-iteration derived seed; decorrelates neighbouring iterations so
/// --seed 1 and --seed 2 do not share query prefixes.
uint64_t MixSeed(uint64_t seed, int iter) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(iter);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

engine::EngineOptions OracleOptions(int max_docs) {
  engine::EngineOptions eopts;
  eopts.verify_plans = true;
  eopts.analysis.check_equivalence = true;
  if (max_docs > 0) eopts.analysis.max_witness_docs = max_docs;
  return eopts;
}

/// One reproducible failure: everything --replay needs.
struct Failure {
  uint64_t seed = 0;
  int iter = 0;
  std::string kind;     // "compile-oracle" | "cross-eval"
  std::string query;
  std::string witness_name;
  std::string witness_xml;  // minimized; empty for compile-oracle failures
  std::string error;
};

std::string SerializeFailure(const Failure& f) {
  std::ostringstream out;
  out << "# xqtp equiv_fuzz failure artifact\n";
  out << "seed: " << f.seed << "\n";
  out << "iter: " << f.iter << "\n";
  out << "kind: " << f.kind << "\n";
  out << "query: " << f.query << "\n";
  out << "witness: " << f.witness_name << "\n";
  out << "error: |\n";
  std::istringstream err(f.error);
  for (std::string line; std::getline(err, line);) {
    out << "  " << line << "\n";
  }
  out << "--- witness xml ---\n" << f.witness_xml << "\n";
  return out.str();
}

bool ParseFailure(const std::string& text, Failure* f) {
  std::istringstream in(text);
  std::string line;
  bool in_xml = false;
  while (std::getline(in, line)) {
    if (in_xml) {
      if (!f->witness_xml.empty()) f->witness_xml += "\n";
      f->witness_xml += line;
      continue;
    }
    if (line == "--- witness xml ---") {
      in_xml = true;
    } else if (line.rfind("seed: ", 0) == 0) {
      f->seed = std::stoull(line.substr(6));
    } else if (line.rfind("iter: ", 0) == 0) {
      f->iter = std::stoi(line.substr(6));
    } else if (line.rfind("kind: ", 0) == 0) {
      f->kind = line.substr(6);
    } else if (line.rfind("query: ", 0) == 0) {
      f->query = line.substr(7);
    } else if (line.rfind("witness: ", 0) == 0) {
      f->witness_name = line.substr(9);
    }
  }
  // Trailing newline from serialization.
  while (!f->witness_xml.empty() && f->witness_xml.back() == '\n') {
    f->witness_xml.pop_back();
  }
  return !f->query.empty();
}

std::string WriteArtifact(const Args& args, const Failure& f, int index) {
  std::string dir = args.artifacts_dir;
  std::string mkdir = "mkdir -p '" + dir + "'";
  if (std::system(mkdir.c_str()) != 0) return "";  // NOLINT(cert-env33-c)
  std::string path = dir + "/failure-" + std::to_string(f.seed) + "-" +
                     std::to_string(f.iter) + "-" + std::to_string(index) +
                     ".txt";
  std::ofstream out(path);
  if (!out) return "";
  out << SerializeFailure(f);
  return path;
}

/// Cross-checks one compiled query against one witness document; fills
/// `error` on divergence.
bool CrossCheckOnDoc(const engine::CompiledQuery& q, const xml::Document& doc,
                     std::string* error) {
  exec::Bindings bindings;
  for (core::VarId v = 0; v < static_cast<core::VarId>(q.vars().size()); ++v) {
    if (q.vars().IsGlobal(v)) bindings[v] = xdm::Sequence{xdm::Item(doc.root())};
  }
  analysis::CrossCheckInput in;
  in.reference = &q.rewritten();
  in.unoptimized = &q.plan();
  in.optimized = &q.optimized();
  Status s = analysis::CrossCheck(in, q.vars(), bindings);
  if (s.ok()) return true;
  *error = s.ToString();
  return false;
}

/// Minimizes a cross-eval failure: re-compiles the query in a scratch
/// engine and shrinks the witness while the divergence persists.
std::string ShrinkCrossEvalWitness(const std::string& query,
                                   const std::string& witness_xml,
                                   int max_docs) {
  engine::Engine eng(OracleOptions(max_docs));
  auto compiled = eng.Compile(query);
  if (!compiled.ok()) return witness_xml;
  analysis::WitnessPredicate pred = [&](const xml::Document& cand) {
    std::string err;
    return !CrossCheckOnDoc(*compiled, cand, &err);
  };
  return analysis::ShrinkWitness(witness_xml, eng.interner(), pred);
}

int RunReplay(const Args& args) {
  std::ifstream in(args.replay);
  if (!in) {
    std::fprintf(stderr, "equiv_fuzz: cannot open artifact %s\n",
                 args.replay.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  Failure f;
  if (!ParseFailure(buf.str(), &f)) {
    std::fprintf(stderr, "equiv_fuzz: malformed artifact %s\n",
                 args.replay.c_str());
    return 2;
  }
  std::printf("replaying %s failure: seed=%llu iter=%d\n  query: %s\n",
              f.kind.c_str(), static_cast<unsigned long long>(f.seed), f.iter,
              f.query.c_str());
  engine::Engine eng(OracleOptions(args.max_docs));
  auto compiled = eng.Compile(f.query);
  if (!compiled.ok()) {
    // The per-rule oracle fires during Compile; for compile-oracle
    // artifacts a non-OK Internal status *is* the reproduction.
    bool reproduced = compiled.status().code() == StatusCode::kInternal;
    std::printf("compile: %s\n", compiled.status().ToString().c_str());
    std::printf("verdict: %s\n",
                reproduced ? "REPRODUCED (still diverges)" : "compile error");
    return reproduced ? 1 : 0;
  }
  if (f.witness_xml.empty()) {
    std::printf("verdict: FIXED (compile oracle no longer fires)\n");
    return 0;
  }
  auto doc = xml::Parse(f.witness_xml, eng.interner());
  if (!doc.ok()) {
    std::fprintf(stderr, "equiv_fuzz: artifact witness does not parse: %s\n",
                 doc.status().ToString().c_str());
    return 2;
  }
  std::string err;
  if (CrossCheckOnDoc(*compiled, *doc.value(), &err)) {
    std::printf("verdict: FIXED (no divergence on saved witness)\n");
    return 0;
  }
  std::printf("%s\nverdict: REPRODUCED (still diverges)\n", err.c_str());
  return 1;
}

int RunFuzz(const Args& args) {
  int compiled_ok = 0;
  int compile_errors = 0;
  int divergences = 0;
  int artifacts = 0;
  for (int i = 0; i < args.iters; ++i) {
    analysis::QueryGen gen(MixSeed(args.seed, i));
    std::string query = gen.Next();
    // Fresh engine per iteration: a bounded interner and, more
    // importantly, deterministic replay (no cross-query state).
    engine::Engine eng(OracleOptions(args.max_docs));
    auto compiled = eng.Compile(query);
    if (!compiled.ok()) {
      if (compiled.status().code() == StatusCode::kInternal) {
        // The per-rule translation-validation oracle (or a verifier)
        // rejected a rewrite: that is a finding, not a generator miss.
        ++divergences;
        Failure f;
        f.seed = args.seed;
        f.iter = i;
        f.kind = "compile-oracle";
        f.query = query;
        f.error = compiled.status().ToString();
        std::string path = WriteArtifact(args, f, artifacts);
        if (!path.empty()) ++artifacts;
        if (!args.quiet) {
          std::printf("[%d] DIVERGENCE (compile oracle)\n  query: %s\n  %s\n"
                      "  artifact: %s\n",
                      i, query.c_str(), f.error.c_str(), path.c_str());
        }
      } else {
        ++compile_errors;
        if (!args.quiet) {
          std::printf("[%d] compile error: %s\n  query: %s\n", i,
                      compiled.status().ToString().c_str(), query.c_str());
        }
      }
      continue;
    }
    ++compiled_ok;
    // Differential execution over the witness corpus.
    const analysis::WitnessCorpus corpus(eng.interner());
    int limit = args.max_docs > 0 ? args.max_docs
                                  : static_cast<int>(corpus.docs().size());
    for (int d = 0; d < limit && d < static_cast<int>(corpus.docs().size());
         ++d) {
      const analysis::WitnessDoc& w = corpus.docs()[d];
      std::string err;
      if (CrossCheckOnDoc(*compiled, *w.doc, &err)) continue;
      ++divergences;
      Failure f;
      f.seed = args.seed;
      f.iter = i;
      f.kind = "cross-eval";
      f.query = query;
      f.witness_name = w.name;
      f.witness_xml = ShrinkCrossEvalWitness(query, w.xml, args.max_docs);
      f.error = err;
      std::string path = WriteArtifact(args, f, artifacts);
      if (!path.empty()) ++artifacts;
      if (!args.quiet) {
        std::printf("[%d] DIVERGENCE (cross-eval, witness %s)\n  query: %s\n"
                    "  %s\n  witness(minimized): %s\n  artifact: %s\n",
                    i, w.name.c_str(), query.c_str(), err.c_str(),
                    f.witness_xml.c_str(), path.c_str());
      }
      break;  // one witness per query is enough to report
    }
  }
  std::printf(
      "equiv_fuzz: iters=%d seed=%llu compiled=%d compile_errors=%d "
      "divergences=%d artifacts=%d\n",
      args.iters, static_cast<unsigned long long>(args.seed), compiled_ok,
      compile_errors, divergences, artifacts);
  return divergences > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--iters") {
      if (const char* v = next()) args.iters = std::atoi(v);
    } else if (a == "--seed") {
      if (const char* v = next()) args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--artifacts") {
      if (const char* v = next()) args.artifacts_dir = v;
    } else if (a == "--max-docs") {
      if (const char* v = next()) args.max_docs = std::atoi(v);
    } else if (a == "--replay") {
      if (const char* v = next()) args.replay = v;
    } else if (a == "--quiet") {
      args.quiet = true;
    } else {
      std::fprintf(stderr,
                   "usage: equiv_fuzz [--iters N] [--seed S] [--artifacts "
                   "DIR] [--max-docs K] [--quiet] | --replay FILE\n");
      return 2;
    }
  }
  if (!args.replay.empty()) return RunReplay(args);
  return RunFuzz(args);
}
