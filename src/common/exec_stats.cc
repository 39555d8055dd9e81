#include "common/exec_stats.h"

namespace xqtp {

namespace {
thread_local ExecStats* g_current = nullptr;
}  // namespace

std::string ExecStats::ToString() const {
  return "nodes_visited=" + std::to_string(nodes_visited) +
         " index_entries=" + std::to_string(index_entries_scanned) +
         " index_skips=" + std::to_string(index_skips) +
         " pattern_evals=" + std::to_string(pattern_evals) +
         " nl_evals=" + std::to_string(nl_evals) +
         " sc_evals=" + std::to_string(sc_evals) +
         " tj_evals=" + std::to_string(tj_evals) +
         " governor_checks=" + std::to_string(governor_checks) +
         " peak_memory_bytes=" + std::to_string(peak_memory_bytes) +
         " batches=" + std::to_string(batches) +
         " tuples_materialized=" + std::to_string(tuples_materialized) +
         " cow_column_copies=" + std::to_string(cow_column_copies);
}

ExecStats* CurrentExecStats() { return g_current; }

ScopedExecStats::ScopedExecStats() : previous_(g_current) {
  g_current = &stats_;
}

ScopedExecStats::~ScopedExecStats() { g_current = previous_; }

}  // namespace xqtp
