// Execution work counters: how much of the document / index an algorithm
// actually touched. The paper's Section 5 arguments are all about this
// quantity ("NLJoin visits a very limited portion of the tree", "SCJoins
// and TwigJoins scan the index once for each step") — the counters make
// them observable.
//
// Collection is opt-in and scoped:
//   xqtp::ScopedExecStats scope;
//   ... evaluate ...
//   scope.stats().index_entries_scanned ...
#ifndef XQTP_COMMON_EXEC_STATS_H_
#define XQTP_COMMON_EXEC_STATS_H_

#include <cstdint>
#include <string>

namespace xqtp {

struct ExecStats {
  /// Tree nodes touched by cursor navigation (NL).
  int64_t nodes_visited = 0;
  /// Per-tag index entries scanned by the Staircase / Twig merges.
  int64_t index_entries_scanned = 0;
  /// Binary searches (skips) into index streams.
  int64_t index_skips = 0;
  /// TupleTreePattern evaluations: one per EvalPattern call. A pattern
  /// fed a one-row batch is one evaluation; a loop-lifted pattern
  /// (exec::EvalPatternLifted) is one per batch and layer of nested
  /// contexts, however many rows the batch holds.
  int64_t pattern_evals = 0;
  /// Pattern evaluations by the algorithm that ran them: nested loop,
  /// staircase join, twig join. One count per EvalPattern, like
  /// pattern_evals, however many morsels it fans out into; a kCostBased
  /// evaluation counts under the algorithm the cost model chose, and a
  /// pattern TwigJoin hands to the nested loop (HandlesPatternShape)
  /// counts under the nested loop.
  int64_t nl_evals = 0;
  int64_t sc_evals = 0;
  int64_t tj_evals = 0;
  /// Cooperative governor checks performed (exec/governor.h): deadline /
  /// cancellation / budget polls at operator boundaries, inner-loop
  /// strides, and morsel boundaries. Zero when no governor was active.
  int64_t governor_checks = 0;
  /// High-water mark of bytes accounted against the governor's memory
  /// budget during the execution. Zero when no governor was active.
  int64_t peak_memory_bytes = 0;
  /// TupleBatches produced by the columnar evaluator (exec/tuple.h):
  /// one per batch yielded by an operator kernel, including zero-copy
  /// selection views.
  int64_t batches = 0;
  /// Tuples physically written — rows whose field sequences were built
  /// into fresh batch columns. Rows passed along by column sharing or
  /// broadcast do not count.
  int64_t tuples_materialized = 0;
  /// Columns deep-copied because a consumer needed flat owned storage.
  /// Nothing increments it: no operator copies a shared column. It stays
  /// because the served-query benchmark (bench/e2e) reports it.
  int64_t cow_column_copies = 0;

  /// Adds another collector's counters into this one. The morsel driver
  /// (exec/parallel.h) gives each worker morsel its own scope and merges
  /// the slots into the calling scope on join, so the counters stay exact
  /// under parallel execution. peak_memory_bytes merges by maximum — it
  /// is a high-water mark of one shared accountant, not additive work.
  void Add(const ExecStats& other) {
    nodes_visited += other.nodes_visited;
    index_entries_scanned += other.index_entries_scanned;
    index_skips += other.index_skips;
    pattern_evals += other.pattern_evals;
    nl_evals += other.nl_evals;
    sc_evals += other.sc_evals;
    tj_evals += other.tj_evals;
    governor_checks += other.governor_checks;
    if (other.peak_memory_bytes > peak_memory_bytes) {
      peak_memory_bytes = other.peak_memory_bytes;
    }
    batches += other.batches;
    tuples_materialized += other.tuples_materialized;
    cow_column_copies += other.cow_column_copies;
  }

  std::string ToString() const;
};

/// The collector for the current scope, or nullptr when collection is off.
ExecStats* CurrentExecStats();

/// RAII enabling of collection. Scopes nest; inner scopes shadow outer
/// ones (the inner scope's counters are NOT added to the outer scope).
class ScopedExecStats {
 public:
  ScopedExecStats();
  ~ScopedExecStats();
  ScopedExecStats(const ScopedExecStats&) = delete;
  ScopedExecStats& operator=(const ScopedExecStats&) = delete;

  const ExecStats& stats() const { return stats_; }

 private:
  ExecStats stats_;
  ExecStats* previous_;
};

/// Counting helpers (no-ops when collection is off).
inline void CountNodesVisited(int64_t n) {
  if (ExecStats* s = CurrentExecStats()) s->nodes_visited += n;
}
inline void CountIndexEntries(int64_t n) {
  if (ExecStats* s = CurrentExecStats()) s->index_entries_scanned += n;
}
inline void CountIndexSkip() {
  if (ExecStats* s = CurrentExecStats()) ++s->index_skips;
}
inline void CountBatch() {
  if (ExecStats* s = CurrentExecStats()) ++s->batches;
}
inline void CountTuplesMaterialized(int64_t n) {
  if (ExecStats* s = CurrentExecStats()) s->tuples_materialized += n;
}

}  // namespace xqtp

#endif  // XQTP_COMMON_EXEC_STATS_H_
