// Query resource governance: a per-execution QueryGovernor holding a
// monotonic deadline, an externally triggerable cancellation token, and a
// byte-accounted memory budget, checked COOPERATIVELY — on a stride at
// operator boundaries in the evaluator, once per TupleBatch (not per
// row) in the columnar tuple pipeline, on a stride inside the
// pattern-evaluation inner loops, per morsel in the parallel driver,
// and once per fixpoint round in the rewriter/optimizer so compilation
// of adversarial queries is bounded too. There is no preemption: a
// check is one relaxed atomic load (cancel), one clock read (deadline),
// and one comparison (budget), and the strides keep the total governed
// overhead under 2% (bench_governor measures it).
//
// Propagation is ambient, like ExecStats: Evaluate installs a
// ScopedGovernor for the calling thread, the morsel driver installs one
// per worker morsel, and deep code polls the thread-local current
// governor without any signature changes. No governor installed = every
// poll is a no-op (the bench's "governor-off" configuration).
#ifndef XQTP_EXEC_GOVERNOR_H_
#define XQTP_EXEC_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/status.h"

namespace xqtp::exec {

/// Externally triggerable cancellation: the client keeps a shared_ptr,
/// hands it to EvalOptions::cancel_token, and may call Cancel() from any
/// thread at any time — the running query observes it at its next
/// governor check and unwinds with Status::Cancelled.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Resource limits for one query execution. All limits are optional and
/// independent; an unset limit is never checked.
struct GovernorLimits {
  /// Monotonic deadline; the query returns kDeadlineExceeded at the first
  /// check past it.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Accounted-byte budget for materialized intermediate results
  /// (<= 0 = unlimited); exceeding it returns kResourceExhausted.
  int64_t memory_budget_bytes = 0;
  /// External cancellation (may be null).
  std::shared_ptr<CancelToken> cancel_token;

  bool Any() const {
    return deadline.has_value() || memory_budget_bytes > 0 ||
           cancel_token != nullptr;
  }
};

/// One query's resource accountant. Shared by the coordinating thread and
/// every worker morsel; all members are thread-safe. Lives on the
/// Evaluate frame, strictly outliving the morsel workers that poll it.
class QueryGovernor {
 public:
  explicit QueryGovernor(const GovernorLimits& limits) : limits_(limits) {}
  QueryGovernor(const QueryGovernor&) = delete;
  QueryGovernor& operator=(const QueryGovernor&) = delete;

  /// One cooperative check: cancellation, then deadline, then budget.
  /// Named error Status on the first tripped limit; the first trip is
  /// sticky, so every later check returns the same verdict and unwinding
  /// code cannot accidentally "un-cancel" a query.
  [[nodiscard]]
  Status Check();

  /// Accounts `bytes` of materialized intermediate state (negative =
  /// release). Returns kResourceExhausted when the budget is exceeded.
  [[nodiscard]]
  Status Charge(int64_t bytes);

  /// Releases previously charged bytes without a budget check (unwind
  /// paths release past the tripped limit).
  void Release(int64_t bytes) {
    accounted_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  int64_t checks() const { return checks_.load(std::memory_order_relaxed); }
  int64_t accounted_bytes() const {
    return accounted_.load(std::memory_order_relaxed);
  }
  int64_t peak_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]]
  Status Trip(Status s);

  const GovernorLimits limits_;
  std::atomic<int64_t> checks_{0};
  std::atomic<int64_t> accounted_{0};
  std::atomic<int64_t> peak_{0};
  /// 0 = not tripped; otherwise the StatusCode of the first trip. The
  /// message is rebuilt from the limits (cheaper than a guarded string).
  std::atomic<int> tripped_{0};
};

/// The governor observed by ambient polls on this thread, or nullptr.
QueryGovernor* CurrentGovernor();

/// RAII installation of the ambient governor, mirroring ScopedExecStats:
/// Evaluate installs one on the coordinating thread, the morsel driver
/// installs one per worker morsel. Scopes nest and restore on exit.
class ScopedGovernor {
 public:
  explicit ScopedGovernor(QueryGovernor* governor);
  ~ScopedGovernor();
  ScopedGovernor(const ScopedGovernor&) = delete;
  ScopedGovernor& operator=(const ScopedGovernor&) = delete;

 private:
  QueryGovernor* previous_;
};

/// One ambient check: no-op (OK) without an installed governor. The
/// operator-boundary and per-round call sites use this directly.
[[nodiscard]]
inline Status GovernorPoll() {
  QueryGovernor* g = CurrentGovernor();
  if (g == nullptr) return Status::OK();
  return g->Check();
}

/// Strided ambient poll for tight loops (pattern-evaluation inner loops):
/// Tick() is a branch and an increment on all but every kStride-th call,
/// where it runs one governor check. The first failure latches; the loop
/// breaks on false and the caller surfaces status(). Constructed once per
/// loop nest so the thread-local lookup happens once, not per iteration.
class GovernorTicker {
 public:
  GovernorTicker() : governor_(CurrentGovernor()) {}

  /// Returns false once the governor has tripped (loops should bail out).
  /// The stride branch comes first so the common path is one increment
  /// and one mask; a tripped ticker is therefore observed within kStride
  /// iterations, not instantly — the bailout bound, not a correctness
  /// window, since the verdict is latched in status_.
  bool Tick() {
    if (governor_ == nullptr) return true;
    if ((++count_ & (kStride - 1)) != 0) return true;
    if (!status_.ok()) return false;
    status_ = governor_->Check();
    return status_.ok();
  }

  /// The first non-OK check result, or OK. Callers return this after a
  /// bailed-out loop.
  [[nodiscard]]
  const Status& status() const { return status_; }

 private:
  static constexpr uint32_t kStride = 1024;
  QueryGovernor* governor_;
  uint32_t count_ = 0;
  Status status_;
};

/// Scoped byte accounting against the ambient governor: Grow charges,
/// the destructor releases everything still charged — so a query that
/// trips any limit mid-accumulation unwinds back to zero accounted bytes
/// and the governor can be reused (no partial-result leak in the
/// accountant). The columnar tuple pipeline charges once per produced
/// TupleBatch (TupleBatch::ApproxBytes) and once per loop-lifted
/// pattern's state; item-plan accumulation loops charge per sequence
/// part. Charges are batched locally and flushed to
/// the shared accountant every kFlushBytes (per-part charges in the
/// evaluator's accumulation loops would otherwise pay an atomic RMW per
/// part — measurable on cheap plans, see bench_governor). The accounting
/// granularity is therefore kFlushBytes per live scope; budgets are
/// megabyte-scale, so the undercount is noise. No-op without an
/// installed governor.
class ScopedMemoryCharge {
 public:
  ScopedMemoryCharge() : governor_(CurrentGovernor()) {}
  ~ScopedMemoryCharge() {
    if (governor_ != nullptr && charged_ > 0) governor_->Release(charged_);
  }
  ScopedMemoryCharge(const ScopedMemoryCharge&) = delete;
  ScopedMemoryCharge& operator=(const ScopedMemoryCharge&) = delete;

  /// Accounts `bytes` more; kResourceExhausted when the flushed total
  /// exceeds the budget.
  [[nodiscard]]
  Status Grow(int64_t bytes) {
    if (governor_ == nullptr || bytes <= 0) return Status::OK();
    pending_ += bytes;
    if (pending_ < kFlushBytes) return Status::OK();
    int64_t flush = pending_;
    pending_ = 0;
    charged_ += flush;
    return governor_->Charge(flush);
  }

 private:
  static constexpr int64_t kFlushBytes = 4096;
  QueryGovernor* governor_;
  int64_t charged_ = 0;   // flushed to the governor; released in dtor
  int64_t pending_ = 0;   // accumulated locally, below the flush threshold
};

}  // namespace xqtp::exec

#endif  // XQTP_EXEC_GOVERNOR_H_
