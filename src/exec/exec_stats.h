// Alias header: the execution work counters live in common/exec_stats.h
// (the XDM navigation layer counts into them too); exec code and users
// historically refer to them through the exec namespace.
#ifndef XQTP_EXEC_EXEC_STATS_H_
#define XQTP_EXEC_EXEC_STATS_H_

#include "common/exec_stats.h"

namespace xqtp::exec {

using xqtp::CountBatch;
using xqtp::CountCowColumnCopies;
using xqtp::CountIndexEntries;
using xqtp::CountIndexSkip;
using xqtp::CountNodesVisited;
using xqtp::CountTuplesMaterialized;
using xqtp::CurrentExecStats;
using xqtp::ExecStats;
using xqtp::ScopedExecStats;

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_EXEC_STATS_H_
