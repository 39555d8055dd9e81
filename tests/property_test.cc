// Property-based tests: random documents crossed with randomly generated
// queries from the supported fragment. Invariants checked:
//  (1) every evaluation route (core interpreter / unoptimized plan /
//      optimized plan x {NL, SC, Twig}) returns the same sequence;
//  (2) path-expression results are in document order and duplicate-free;
//  (3) rewriting and optimization are deterministic.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "algebra/printer.h"
#include "engine/engine.h"
#include "workload/member_gen.h"
#include "xdm/sequence_ops.h"

namespace xqtp {
namespace {

/// Random query generator over the tree-pattern-friendly fragment plus
/// FLWOR wrappers, positional predicates and value comparisons.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Gen() {
    std::string q = "$input";
    int steps = Rand(1, 4);
    for (int i = 0; i < steps; ++i) q += GenStep();
    if (Chance(0.3)) {
      // Wrap as FLWOR over a prefix.
      std::string inner = "$x";
      int more = Rand(0, 2);
      for (int i = 0; i < more; ++i) inner += GenStep();
      return "for $x in " + q + " return " + inner;
    }
    return q;
  }

 private:
  int Rand(int lo, int hi) {
    std::uniform_int_distribution<int> d(lo, hi);
    return d(rng_);
  }
  bool Chance(double p) {
    std::uniform_real_distribution<double> d(0, 1);
    return d(rng_) < p;
  }
  std::string Tag() {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "t%02d", Rand(1, 8));
    return buf;
  }
  std::string GenStep() {
    std::string axis = Chance(0.5) ? "/" : "//";
    std::string step = axis + Tag();
    if (Chance(0.35)) {
      switch (Rand(0, 3)) {
        case 0:
          step += "[" + Tag() + "]";
          break;
        case 1:
          step += "[" + std::to_string(Rand(1, 3)) + "]";
          break;
        case 2:
          step += "[" + Tag() + "[" + Tag() + "]]";
          break;
        case 3:
          step += "[position() = " + std::to_string(Rand(1, 2)) + "]";
          break;
      }
    }
    return step;
  }
  std::mt19937_64 rng_;
};

class PropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyTest, AllRoutesAgreeOnRandomQueries) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  engine::Engine e;
  workload::MemberParams mp;
  mp.node_count = 3000;
  mp.max_depth = 6;
  mp.num_tags = 8;  // few tags -> same-name nesting is common
  mp.seed = seed;
  const xml::Document* d =
      e.AddDocument("m", workload::GenerateMember(mp, e.interner()));

  QueryGen gen(seed * 977 + 13);
  for (int i = 0; i < 25; ++i) {
    std::string q = gen.Gen();
    auto cq = e.Compile(q);
    ASSERT_TRUE(cq.ok()) << q << ": " << cq.status().ToString();
    engine::Engine::GlobalMap globals{{"input", {xdm::Item(d->root())}}};
    auto ref = e.Execute(*cq, globals, exec::PatternAlgo::kNLJoin,
                         engine::PlanChoice::kCoreInterp);
    ASSERT_TRUE(ref.ok()) << q << ": " << ref.status().ToString();
    for (auto pc : {engine::PlanChoice::kUnoptimized,
                    engine::PlanChoice::kOptimized}) {
      for (auto algo :
           {exec::PatternAlgo::kNLJoin, exec::PatternAlgo::kStaircase,
            exec::PatternAlgo::kTwig}) {
        auto res = e.Execute(*cq, globals, algo, pc);
        ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
        ASSERT_EQ(res->size(), ref->size())
            << q << "\nplan=" << static_cast<int>(pc) << " algo="
            << exec::PatternAlgoName(algo) << "\n"
            << e.Explain(*cq);
        for (size_t j = 0; j < res->size(); ++j) {
          ASSERT_TRUE((*res)[j] == (*ref)[j])
              << q << " item " << j << " plan=" << static_cast<int>(pc)
              << " algo=" << exec::PatternAlgoName(algo);
        }
      }
    }
  }
}

TEST_P(PropertyTest, PathResultsAreDistinctDocOrdered) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  engine::Engine e;
  workload::MemberParams mp;
  mp.node_count = 2000;
  mp.max_depth = 6;
  mp.num_tags = 8;
  mp.seed = seed + 1000;
  const xml::Document* d =
      e.AddDocument("m", workload::GenerateMember(mp, e.interner()));

  QueryGen gen(seed * 31 + 7);
  for (int i = 0; i < 25; ++i) {
    std::string q = gen.Gen();
    if (q.rfind("for ", 0) == 0) continue;  // FLWOR results may be unordered
    auto res = e.Run(q, *d, exec::PatternAlgo::kTwig);
    ASSERT_TRUE(res.ok()) << q;
    EXPECT_TRUE(xdm::IsDistinctDocOrdered(*res) || res->empty()) << q;
  }
}

TEST_P(PropertyTest, CompilationIsDeterministic) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  QueryGen gen(seed * 131 + 1);
  for (int i = 0; i < 10; ++i) {
    std::string q = gen.Gen();
    engine::Engine e1, e2;
    auto c1 = e1.Compile(q);
    auto c2 = e2.Compile(q);
    ASSERT_TRUE(c1.ok() && c2.ok()) << q;
    EXPECT_EQ(
        algebra::ToString(c1->optimized(), c1->vars(), *e1.interner()),
        algebra::ToString(c2->optimized(), c2->vars(), *e2.interner()))
        << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest, ::testing::Range(1, 9));

}  // namespace
}  // namespace xqtp
