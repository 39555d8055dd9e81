// Public facade: the full compilation pipeline of the paper's Figure 2
// (parse -> normalize -> TPNF' rewrite -> algebraic compile -> tree-pattern
// optimization) plus execution with a chosen physical algorithm.
//
// Quickstart:
//   xqtp::engine::Engine engine;
//   auto doc = engine.LoadDocument("auction", xml_text);          // Result
//   auto q = engine.Compile("$input//person[emailaddress]/name"); // Result
//   Engine::GlobalMap globals{
//       {"input", {xdm::Item(doc.value()->root())}}};
//   auto result = engine.Execute(*q, globals,
//                                xqtp::exec::PatternAlgo::kTwig); // Result
//
// Serving hot path (compiles through the sharded plan cache; repeated
// queries skip the whole pipeline — see engine/plan_cache.h):
//   auto served = engine.ExecuteQuery("$input//person/name", globals);
//   auto stats = engine.plan_cache_stats();  // hits / misses / bytes ...
#ifndef XQTP_ENGINE_ENGINE_H_
#define XQTP_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/compile.h"
#include "algebra/optimize.h"
#include "analysis/equiv_checker.h"
#include "common/status.h"
#include "common/mutex.h"
#include "core/normalize.h"
#include "core/rewrite.h"
#include "engine/plan_cache.h"
#include "exec/core_interp.h"
#include "exec/evaluator.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xquery/parser.h"

namespace xqtp::engine {

struct EngineOptions {
  /// Run the static verifiers (analysis::VerifyCore after normalization
  /// and rewriting, analysis::VerifyPlan after compilation and after each
  /// optimizer round) on every query compiled through this engine. A
  /// violation surfaces as Status::Internal tagged with the pass that
  /// produced the broken tree. On by default in Debug builds.
  bool verify_plans = analysis::kVerifyByDefault;
  /// Translation-validation oracle: when analysis.check_equivalence is
  /// set, every rewrite-rule family and optimizer round is additionally
  /// validated by executing the tree before and after the rules against
  /// the witness corpus (analysis/equiv_checker.h), and the Core ->
  /// algebra compilation step is differentially checked. A divergence
  /// surfaces as Status::Internal carrying the offending rule, the
  /// minimized witness document, and both printed forms. On by default
  /// in Debug builds, like the verifiers.
  analysis::AnalysisOptions analysis;
  /// Compiled-plan cache sizing (engine/plan_cache.h). The capacity is
  /// fixed at engine construction; SetOptions does not resize the cache
  /// (it only invalidates entries compiled under the old options).
  PlanCacheConfig plan_cache;
};

struct CompileOptions {
  /// Apply the TPNF' Core rewrites (phase 2). Off = each syntactic variant
  /// keeps its own shape.
  bool rewrite = true;
  /// Apply the algebraic tree-pattern detection (rules (a)-(f)).
  /// Off = the "old engine" of Figure 4: nested maps + navigational
  /// TreeJoin.
  bool detect_tree_patterns = true;
  /// Fold constant positional predicates into pattern steps (rule (g) —
  /// the paper's future-work extension). On by default: `$d//person[1]`
  /// becomes one pattern instead of a per-row pattern inside a positional
  /// loop (EXPERIMENTS.md E8). The paper reproductions set it to false,
  /// which gives the paper's Q3/Q4 plans.
  bool positional_patterns = true;
  /// Fine-grained rewrite switches (used by the ablation benchmark).
  core::RewriteOptions rewrite_opts;
  /// Compile-time resource limits: when either is set, Compile installs a
  /// governor for its duration and the rewriter's / optimizer's fixpoint
  /// rounds poll it — an adversarial query cannot pin the compiler any
  /// more than the evaluator. Independent of the execution-time limits in
  /// exec::EvalOptions.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  std::shared_ptr<exec::CancelToken> cancel_token;
};

/// A query compiled through every phase. Engine::Compile keeps the
/// intermediate stages (normalized Core, rewritten Core, unoptimized plan)
/// for Explain, the reference plan choices and tests; a plan-cache entry
/// (Engine::CompileCached) keeps only what PlanChoice::kOptimized runs:
/// the source, the variables and the optimized plan. The caller decides;
/// no option does.
///
/// IMMUTABLE AFTER BUILD: Engine's build path populates every field and
/// nothing mutates one afterwards, so a `shared_ptr<const CompiledQuery>`
/// handed out by the plan cache is safe to execute from any number of
/// threads concurrently (per-run state lives in exec::EvalOptions and the
/// governor). tools/lint.py rule `compiled-query-immutable` rejects
/// writes to the internals outside the build path.
class CompiledQuery {
 public:
  const std::string& source() const { return source_; }
  const core::VarTable& vars() const { return vars_; }

  /// True when the intermediate stages were kept (Engine::Compile); false
  /// on a plan-cache entry. The three stage accessors below require it.
  bool has_stages() const { return stages_ != nullptr; }
  /// The normalized Core expression (the paper's Q1a-n stage).
  const core::CoreExpr& normalized() const { return *stages_->normalized; }
  /// The Core expression after the TPNF' rewrites (the Q1-tp stage).
  const core::CoreExpr& rewritten() const { return *stages_->rewritten; }
  /// The compiled, unoptimized algebra plan (the P1 stage).
  const algebra::Op& plan() const { return *stages_->plan; }
  /// The final optimized plan (the P5 stage).
  const algebra::Op& optimized() const { return *optimized_; }

  /// Names of the query's free variables, to be bound at execution.
  std::vector<std::string> GlobalNames() const;

  /// Plan statistics of the optimized plan.
  algebra::PlanStats Stats() const { return algebra::ComputeStats(*optimized_); }

  /// Canonical fingerprint of (query text, plan-shaping CompileOptions),
  /// stamped at compile (see Engine::Fingerprint). The plan-cache key;
  /// also printed by Explain.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Estimated heap footprint of what this query holds: the source text,
  /// the variables, the optimized plan and, when kept, the stages. The
  /// byte charge the plan cache's LRU accounting uses; a sizeof-based
  /// traversal of the retained trees, which tests/plan_cache_test.cc
  /// measures against the real heap growth of a filled cache (DESIGN.md
  /// "Plan cache").
  int64_t MemoryUsage() const { return memory_bytes_; }

 private:
  friend class Engine;
  /// The pipeline's intermediate forms, kept by Engine::Compile only.
  struct Stages {
    core::CoreExprPtr normalized;
    core::CoreExprPtr rewritten;
    algebra::OpPtr plan;
  };
  std::string source_;
  core::VarTable vars_;
  std::unique_ptr<const Stages> stages_;  ///< null on a plan-cache entry
  algebra::OpPtr optimized_;
  uint64_t fingerprint_ = 0;
  int64_t memory_bytes_ = 0;
};

/// Which plan Execute runs. The two reference choices read stages that
/// only Engine::Compile keeps: Execute refuses them with InvalidArgument
/// on a plan-cache entry (CompiledQuery::has_stages() is false).
enum class PlanChoice : uint8_t {
  kOptimized,     ///< the tree-pattern plan (default)
  kUnoptimized,   ///< the P1-style plan — the Figure 4 "old engine"
  /// Direct interpretation of the rewritten Core: the semantics
  /// reference. It checks no governor, so Execute refuses it with
  /// InvalidArgument when EvalOptions sets a deadline, a cancel token or
  /// a memory budget, rather than silently dropping the limit.
  kCoreInterp,
};

class Engine {
 public:
  Engine() = default;
  explicit Engine(const EngineOptions& options) : options_(options) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Parses and registers an XML document under `name`.
  [[nodiscard]]
  Result<const xml::Document*> LoadDocument(const std::string& name,
                                            std::string_view xml_text);

  /// Registers an externally built document (e.g. from the workload
  /// generators). Takes ownership.
  const xml::Document* AddDocument(const std::string& name,
                                   std::unique_ptr<xml::Document> doc);

  /// Returns a registered document or nullptr.
  const xml::Document* FindDocument(const std::string& name) const;

  /// Compiles a query through all phases, keeping every intermediate stage
  /// (Explain, PlanChoice::kUnoptimized and kCoreInterp read them).
  [[nodiscard]]
  Result<CompiledQuery> Compile(std::string_view query,
                                const CompileOptions& opts = {});

  /// Canonical plan-cache key for (query, opts): FNV-1a over the
  /// canonicalized query text (whitespace/comment-insensitive — see
  /// common/fingerprint.h) combined with every CompileOptions field that
  /// affects plan shape (rewrite and detection switches, the fine-grained
  /// rewrite_opts and its max_rounds). Compile-time limits (deadline,
  /// cancel_token) do not shape the plan and are excluded, so a query
  /// compiled with a deadline still hits the entry cached without one.
  uint64_t Fingerprint(std::string_view query,
                       const CompileOptions& opts = {}) const;

  /// Compiles through the sharded plan cache (engine/plan_cache.h): a hit
  /// returns the shared immutable plan without recompiling; concurrent
  /// misses on one fingerprint compile exactly once (single-flight), the
  /// waiters receiving the filled plan or the compile error. The static
  /// verifiers and the translation-validation oracle run at fill only —
  /// a hit is an already-verified plan. A fill runs the same pipeline as
  /// Compile but keeps no intermediate stage: the entry holds the
  /// optimized plan only (has_stages() is false). Thread-safe; when the
  /// oracle is enabled (Debug default), fills additionally serialize on an
  /// engine mutex because analysis::EquivChecker is single-threaded.
  [[nodiscard]]
  Result<std::shared_ptr<const CompiledQuery>> CompileCached(
      std::string_view query, const CompileOptions& opts = {});

  /// Global bindings by variable name; a document binds as its root node.
  using GlobalMap = std::map<std::string, xdm::Sequence>;

  /// Executes a compiled query. This legacy entry point is the sequential
  /// path (threads = 1), keeping per-algorithm ExecStats deterministic.
  [[nodiscard]]
  Result<xdm::Sequence> Execute(
      const CompiledQuery& q, const GlobalMap& globals,
      exec::PatternAlgo algo = exec::PatternAlgo::kNLJoin,
      PlanChoice plan = PlanChoice::kOptimized) const;

  /// Executes a compiled query with full evaluation options — notably
  /// EvalOptions::threads for the morsel-parallel driver (exec/parallel.h;
  /// 0 = one thread per hardware thread). Evaluation runs under a
  /// StringInterner::ExecutionFreeze: no name may be interned mid-query.
  [[nodiscard]]
  Result<xdm::Sequence> Execute(const CompiledQuery& q,
                                const GlobalMap& globals,
                                const exec::EvalOptions& opts,
                                PlanChoice plan = PlanChoice::kOptimized) const;

  /// The serving hot path: CompileCached + Execute. Repeated calls with
  /// textual variants of one query (whitespace, comments) recompile
  /// nothing after the first.
  [[nodiscard]]
  Result<xdm::Sequence> ExecuteQuery(std::string_view query,
                                     const GlobalMap& globals,
                                     const exec::EvalOptions& eval_opts = {},
                                     const CompileOptions& opts = {});

  /// One-shot convenience: compile + execute against a single document
  /// bound to every free variable of the query.
  [[nodiscard]]
  Result<xdm::Sequence> Run(std::string_view query, const xml::Document& doc,
                            exec::PatternAlgo algo = exec::PatternAlgo::kNLJoin,
                            const CompileOptions& opts = {});

  /// Point-in-time plan-cache counters (hits, misses, fills, evictions,
  /// single-flight waits, bytes, per-shard occupancy).
  PlanCacheStats plan_cache_stats() const { return plan_cache_.Snapshot(); }

  /// Drops the cached plan for (query, opts). Returns true when an entry
  /// was present. An in-flight fill is unaffected and will re-insert.
  bool ErasePlan(std::string_view query, const CompileOptions& opts = {});

  /// Drops every cached plan. Plans still referenced by running
  /// executions stay alive through their shared_ptr.
  void ClearPlanCache() { plan_cache_.Clear(); }

  /// Replaces the engine options and invalidates every cached plan (they
  /// were compiled under the old options; the cached entries are dropped
  /// lazily via a generation bump). The plan cache's byte capacity stays
  /// as constructed. Must not race with in-flight Compile calls.
  void SetOptions(const EngineOptions& options);

  /// Multi-phase explain dump (surface / core / rewritten / plan /
  /// optimized plan / plan-cache disposition), for the examples and
  /// debugging. A plan-cache entry prints the query, the optimized plan
  /// and the plan-cache block, and says that its stages were not kept.
  std::string Explain(const CompiledQuery& q) const;

  StringInterner* interner() { return &interner_; }
  const StringInterner& interner() const { return interner_; }

 private:
  /// The engine's oracle, created on first use (witness documents parse
  /// with the engine's interner, which must exist first).
  analysis::EquivChecker* equiv_checker();

  /// The one pipeline behind Compile and CompileForCache. With
  /// `keep_stages` each stage is cloned into the result before the next
  /// consumes it; without, each stage moves into the next and only the
  /// optimized plan survives. Every verifier and the oracle run either
  /// way. `fingerprint` is Fingerprint(query, opts), which the cache fill
  /// already holds as its key.
  [[nodiscard]]
  Result<CompiledQuery> BuildQuery(std::string_view query,
                                   const CompileOptions& opts,
                                   uint64_t fingerprint, bool keep_stages);

  /// Compiles `query` without its stages and wraps it for the cache under
  /// `key`; runs outside any cache shard lock (callers hold compile_mu_
  /// first when the oracle is on).
  [[nodiscard]]
  Result<PlanCache::PlanPtr> CompileForCache(std::string_view query,
                                             const CompileOptions& opts,
                                             uint64_t key);

  EngineOptions options_;
  StringInterner interner_;
  std::map<std::string, std::unique_ptr<xml::Document>> docs_;
  std::unique_ptr<analysis::EquivChecker> equiv_;
  int32_t next_doc_id_ = 0;
  /// Serializes whole compilations when the translation-validation
  /// oracle is enabled: the EquivChecker (and its lazy creation) is
  /// explicitly not thread-safe. With the oracle off (Release serving
  /// default), cache fills for different keys compile fully in parallel.
  Mutex compile_mu_;
  /// Sized once from options_.plan_cache (declared after options_ so the
  /// default member initializer reads the configured capacity).
  PlanCache plan_cache_{options_.plan_cache};
};

}  // namespace xqtp::engine

#endif  // XQTP_ENGINE_ENGINE_H_
