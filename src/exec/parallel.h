// Morsel-parallel execution of TupleTreePattern operators.
//
// The paper's payoff — a detected tree pattern is ONE coarse-grained
// operator — makes that operator the natural unit of intra-query
// parallelism: its root-input stream partitions into independent morsels,
// each evaluated by any of the sequential algorithms, with an
// order-preserving merge re-establishing the operator's Section 4.1
// semantics (distinct bindings in document order). The nested
// Map/TreeJoin "old engine" plan has no such unit to cut.
//
// One source of morsels: the root fan-out of a one-node context. The
// common optimized plan feeds ONE context node (the document root) per
// pattern. The driver expands the root step's candidate set directly from
// the per-tag index (the staircase-join region scan), rewrites the
// pattern to be self-rooted (the remainder: predicates + continuation),
// and cuts the candidates into morsels, each a sub-span of them. A
// context of several nodes (a loop-lifted layer) runs sequentially: cut
// into morsels it made XQ3, XQ5, XQ14 and XQ17 7-13% slower at threads=2
// than at threads=1 (EXPERIMENTS.md E22).
//
// RunMorsels is the one way morsels run: the calling thread plus workers
// borrowed, per morselizing evaluation, from a process-wide reservoir of
// parked threads, claiming morsel indexes from a shared cursor — no work
// stealing, just finer-than-thread morsels for load balance.
// No query owns a thread or a pool. Workers collect their ExecStats into
// per-morsel slots that the driver merges into the calling scope on join,
// so counters stay exact under parallelism. Pattern evaluation never
// touches the engine's interner (see StringInterner::ExecutionFreeze);
// the lazily-built document indexes the pattern reads are pre-warmed
// before fan-out so Document::lazy_mu_ is only ever taken on its shared
// (read) path by workers.
#ifndef XQTP_EXEC_PARALLEL_H_
#define XQTP_EXEC_PARALLEL_H_

#include <functional>
#include <span>
#include <vector>

#include "common/status.h"
#include "exec/governor.h"
#include "exec/pattern_eval.h"
#include "pattern/tree_pattern.h"

namespace xqtp::exec {

/// Resolves an EvalOptions::threads value: 0 means one thread per
/// hardware thread, anything else is taken literally (minimum 1).
int ResolveThreads(int threads);

/// Runs fn(0) ... fn(count-1), each exactly once, on the calling thread
/// plus up to width - 1 workers borrowed from the process-wide reservoir
/// of parked threads (a thread starts only when none is parked). Indexes
/// are claimed from one mutex-guarded cursor. Returns once every index
/// has run and every borrowed worker is parked again, so nothing `fn`
/// refers to is touched after the return. `fn` must not throw. noexcept:
/// a worker that cannot be started ends the process rather than leave
/// launched workers running on this call's stack state.
void RunMorsels(int width, int count,
                const std::function<void(int)>& fn) noexcept;

/// Per-evaluation parallelism parameters handed down from EvalOptions.
struct ParallelContext {
  /// The query's governor, or nullptr when no limits are set. Workers
  /// install it (exec/governor.h ScopedGovernor) for the duration of each
  /// morsel, observe cancellation between morsels, and share its sticky
  /// verdict — the governor itself is thread-safe.
  QueryGovernor* governor = nullptr;
  /// Resolved thread count (>= 2; a context is only built for parallel
  /// runs). The driver runs at most ClampParallelThreads of it.
  int threads = 2;
  /// Minimum root fan-out (root-step candidates) before the driver
  /// morselizes; below it the sequential path runs.
  int min_fanout = 256;
};

/// Effective worker count for `units` parallel work units: one thread
/// per `min_fanout` units, clamped to [2, threads]. The floor of 2
/// preserves the min_fanout gate's decision that parallelism is
/// worthwhile at all; the per-unit scaling stops an 8-thread request
/// from oversubscribing a fan-out that only feeds 2-3 threads (thread
/// start-up + morsel-cursor contention made 8 threads *slower* than 2 on
/// the XMark //item//location bench before this clamp).
int ClampParallelThreads(size_t units, int threads, int min_fanout);

/// Attempts morsel-parallel evaluation of `tp` over the context node set
/// `context` (EvalPattern's) with the algorithm EvalPattern resolved.
/// Returns true and fills `*out` when the driver handled the evaluation;
/// false when the input is not morselizable (not exactly one context
/// node, positional or non-downward root, small fan-out) and the
/// sequential path should run instead. Results are bit-identical to the
/// sequential algorithm: the same nodes in the same order.
bool TryEvalPatternParallel(const pattern::TreePattern& tp,
                            std::span<const xml::Node* const> context,
                            PatternAlgo algo, const ParallelContext& par,
                            Result<std::vector<const xml::Node*>>* out);

/// Number of pattern evaluations that actually fanned out into morsels
/// since process start.
/// Process-wide, monotonic, thread-safe. Exposed so tests can assert
/// that a given execution path did — or, for the sequential legacy
/// Engine::Execute contract, did not — parallelize.
int64_t ParallelEvaluationCountForTesting();

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_PARALLEL_H_
