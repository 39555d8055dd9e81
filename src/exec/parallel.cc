// Morsel-parallel driver for TupleTreePattern evaluation (see parallel.h
// for the architecture). Correctness rests on two facts:
//
//  1. every sequential algorithm returns the operator's Section 4.1
//     result: the DISTINCT bound nodes in document order
//     (xml::DocOrderLess). A morsel's result is therefore a sorted run,
//     and an order-preserving merge + dedup of the runs reproduces the
//     sequential output bit for bit;
//  2. the union over the root step's candidates of the self-rooted
//     pattern's matches equals the pattern's matches from the context
//     node — pattern evaluation is per-context independent, so any
//     partition of the candidates is sound.
#include "exec/parallel.h"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cassert>
#include <iterator>
#include <thread>
#include <utility>

#include "common/fault_injection.h"
#include "common/interner.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/exec_stats.h"
#include "xml/document.h"

namespace xqtp::exec {

namespace {
/// See ParallelEvaluationCountForTesting().
std::atomic<int64_t> g_parallel_evals{0};
}  // namespace

int64_t ParallelEvaluationCountForTesting() {
  return g_parallel_evals.load(std::memory_order_relaxed);
}

int ClampParallelThreads(size_t units, int threads, int min_fanout) {
  if (threads < 2) return threads;
  size_t per_unit = units / static_cast<size_t>(std::max(1, min_fanout));
  if (per_unit >= static_cast<size_t>(threads)) return threads;
  return std::max(2, static_cast<int>(per_unit));
}

int ResolveThreads(int threads) {
  if (threads == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return threads < 1 ? 1 : threads;
}

namespace {

/// The process-wide set of parked worker threads that RunMorsels borrows
/// and hands back, so a query that morselizes neither starts nor joins a
/// thread once enough are parked. The threads must also stay put for
/// memory to: each keeps its malloc arena, and an arena released by an
/// exiting thread goes to whichever thread starts next, so workers that
/// came and went per query would decide at random how many arenas the
/// long-lived serving threads touch, and so how much memory stays
/// resident.
class WorkerReservoir {
 public:
  static WorkerReservoir& Get() {
    // Never destroyed: parked workers wait on it until the process exits.
    static WorkerReservoir* const reservoir = [] {
      auto* r = new WorkerReservoir;
      pthread_atfork(&PrepareFork, &AfterForkInParent, &AfterForkInChild);
      return r;
    }();
    return *reservoir;
  }

  /// Runs `job` on a parked worker, or on a new thread when none is
  /// parked, then `done` once the worker is parked again (or about to
  /// exit), so a caller that waits for `done` can be followed by one that
  /// gets the same worker back.
  void Launch(std::function<void()> job, std::function<void()> done)
      EXCLUDES(mu_) {
    Worker* w = nullptr;
    {
      MutexLock lock(&mu_);
      if (!idle_.empty()) {
        w = idle_.back();
        idle_.pop_back();
      }
    }
    if (w == nullptr) {
      w = new Worker;
      std::thread([this, w] { Serve(w); }).detach();
    }
    MutexLock lock(&w->mu);
    w->job = std::move(job);
    w->done = std::move(done);
    w->wake.NotifyOne();
  }

 private:
  struct Worker {
    Mutex mu;
    CondVar wake;
    std::function<void()> job GUARDED_BY(mu);
    std::function<void()> done GUARDED_BY(mu);
  };

  /// At most this many workers stay parked; a worker that finishes a job
  /// when the reservoir is full exits instead.
  const size_t max_idle_ = static_cast<size_t>(ResolveThreads(0));

  void Serve(Worker* w) EXCLUDES(mu_) {
    for (bool parked = true; parked;) {
      std::function<void()> job;
      std::function<void()> done;
      {
        MutexLock lock(&w->mu);
        while (!w->job) w->wake.Wait(w->mu);
        job = std::move(w->job);
        done = std::move(w->done);
        w->job = nullptr;
        w->done = nullptr;
      }
      job();
      {
        MutexLock lock(&mu_);
        parked = idle_.size() < max_idle_;
        if (parked) idle_.push_back(w);
      }
      // A Launch may already have handed `w` its next job; it waits in
      // w->job until this one's `done` has run.
      done();
    }
    delete w;
  }

  // A forked child has only the forking thread: the parent's parked
  // workers do not exist there, so the child starts with none.
  static void PrepareFork() NO_THREAD_SAFETY_ANALYSIS { Get().mu_.Lock(); }
  static void AfterForkInParent() NO_THREAD_SAFETY_ANALYSIS {
    Get().mu_.Unlock();
  }
  static void AfterForkInChild() NO_THREAD_SAFETY_ANALYSIS {
    Get().idle_.clear();
    Get().mu_.Unlock();
  }

  Mutex mu_;
  std::vector<Worker*> idle_ GUARDED_BY(mu_);
};

}  // namespace

void RunMorsels(int width, int count,
                const std::function<void(int)>& fn) noexcept {
  struct Run {
    Mutex mu;
    CondVar parked;
    int next GUARDED_BY(mu) = 0;
    /// Borrowed workers not yet parked again.
    int running GUARDED_BY(mu) = 0;
  } run;
  auto claim = [&run, count, &fn] {
    for (;;) {
      int i;
      {
        MutexLock lock(&run.mu);
        if (run.next >= count) return;
        i = run.next++;
      }
      fn(i);
    }
  };
  const int helpers = std::min(width, count) - 1;
  {
    MutexLock lock(&run.mu);
    run.running = std::max(0, helpers);
  }
  for (int h = 0; h < helpers; ++h) {
    WorkerReservoir::Get().Launch(claim, [&run] {
      // `run` may be gone as soon as mu is released.
      MutexLock lock(&run.mu);
      if (--run.running == 0) run.parked.NotifyAll();
    });
  }
  claim();  // the calling thread claims morsels alongside the workers
  MutexLock lock(&run.mu);
  while (run.running > 0) run.parked.Wait(run.mu);
}

namespace {

using pattern::PatternNode;
using pattern::PatternNodePtr;
using pattern::TreePattern;
using xml::Document;
using xml::Node;

struct MorselRange {
  size_t begin;
  size_t end;
};

/// The morsels per thread that PlanMorsels targets.
constexpr int kMorselsPerThread = 4;

/// Cuts `units` work units into contiguous morsels: about
/// threads * kMorselsPerThread of them, never smaller than
/// min_fanout / 4 units (finer morsels would be all coordination).
std::vector<MorselRange> PlanMorsels(size_t units, int threads,
                                     int min_fanout) {
  int target = std::max(1, threads * kMorselsPerThread);
  size_t min_units = std::max<size_t>(1, static_cast<size_t>(min_fanout) / 4);
  size_t size = std::max(min_units,
                         (units + static_cast<size_t>(target) - 1) /
                             static_cast<size_t>(target));
  std::vector<MorselRange> morsels;
  morsels.reserve(units / size + 1);
  for (size_t lo = 0; lo < units; lo += size) {
    morsels.push_back({lo, std::min(units, lo + size)});
  }
  return morsels;
}

/// Order-preserving merge of per-morsel node runs by document order, then
/// one dedup pass. Every sequential algorithm returns its nodes in that
/// order, which is what makes the merged output bit-identical to the
/// sequential one.
std::vector<const Node*> MergeSortedRuns(
    std::vector<std::vector<const Node*>> runs) {
  std::vector<const Node*> acc;
  for (std::vector<const Node*>& run : runs) {
    if (run.empty()) continue;
    if (acc.empty()) {
      acc = std::move(run);
      continue;
    }
    std::vector<const Node*> merged;
    merged.reserve(acc.size() + run.size());
    std::merge(acc.begin(), acc.end(), run.begin(), run.end(),
               std::back_inserter(merged), xml::DocOrderLess);
    acc = std::move(merged);
  }
  acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
  return acc;
}

/// Pre-builds the lazily-constructed per-tag streams that evaluating the
/// pattern below `p` will touch, so worker threads only ever hit the built
/// fast path of Document's lazy getters.
void PrewarmSteps(const Document& doc, const PatternNode& p) {
  StepStream(doc, p.axis, p.test);
  for (const PatternNodePtr& pred : p.predicates) PrewarmSteps(doc, *pred);
  if (p.next != nullptr) PrewarmSteps(doc, *p.next);
}

/// Merges the per-morsel worker counters into the calling scope (if any):
/// the driver reports exactly the work its morsels did.
void MergeWorkerStats(const std::vector<ExecStats>& slots) {
  if (ExecStats* s = CurrentExecStats()) {
    for (const ExecStats& w : slots) s->Add(w);
  }
}

}  // namespace

bool TryEvalPatternParallel(const pattern::TreePattern& tp,
                            std::span<const Node* const> context,
                            PatternAlgo algo, const ParallelContext& par,
                            Result<std::vector<const Node*>>* out) {
  // EvalPattern resolves kCostBased first, so every morsel runs ONE
  // algorithm.
  assert(algo != PatternAlgo::kCostBased);
  if (par.threads < 2 || tp.root == nullptr || context.size() != 1) {
    return false;
  }
  // Root fan-out: expand the root step's candidates from the index,
  // rewrite the pattern self-rooted, morselize the candidates.
  const PatternNode& root = *tp.root;
  if (root.position != 0) return false;
  if (root.axis != Axis::kChild && root.axis != Axis::kDescendant &&
      root.axis != Axis::kDescendantOrSelf) {
    return false;
  }
  const Node* ctx = context.front();
  // The candidates lie in the context's subtree, and DocumentBuilder's
  // numbering gives a node post - pre + depth descendants (attributes
  // included). Below min_fanout even that bound cannot morselize, so skip
  // the scan rather than throw its result away.
  const size_t bound = static_cast<size_t>(ctx->post - ctx->pre + ctx->depth) +
                       (root.axis == Axis::kDescendantOrSelf ? 1 : 0);
  if (bound < static_cast<size_t>(par.min_fanout)) return false;
  const Document& doc = *ctx->doc;
  GovernorTicker gov;
  const std::vector<const Node*> candidates = ScanRegions(
      StepStream(doc, root.axis, root.test), context, root.axis, root.test,
      &gov);
  if (!gov.status().ok()) {
    *out = gov.status();
    return true;
  }
  if (candidates.size() < static_cast<size_t>(par.min_fanout)) return false;

  // Clamp the fan-out to what the candidates can feed before sizing
  // morsels, so small-fan-out queries never borrow workers they cannot
  // keep busy.
  const int width =
      ClampParallelThreads(candidates.size(), par.threads, par.min_fanout);
  std::vector<MorselRange> morsels =
      PlanMorsels(candidates.size(), width, par.min_fanout);
  if (morsels.size() < 2) return false;

  TreePattern self_tp = tp.Clone();
  self_tp.root->axis = Axis::kSelf;  // candidates already match the test
  PrewarmSteps(doc, *self_tp.root);

  struct Part {
    Result<std::vector<const Node*>> nodes = std::vector<const Node*>{};
  };
  std::vector<Part> parts(morsels.size());
  std::vector<ExecStats> stats_slots(morsels.size());
  g_parallel_evals.fetch_add(1, std::memory_order_relaxed);
  RunMorsels(width, static_cast<int>(morsels.size()), [&](int m) {
    ScopedExecStats scope;  // per-morsel collection slot
    // Each worker morsel re-installs the query's governor: cancellation
    // is observed between morsels (the entry poll) and on the inner-loop
    // strides of the sequential algorithm it runs.
    ScopedGovernor governed(par.governor);
    // The "no interning mid-query" assert is per-thread (so plan-cache
    // fills may intern concurrently on other serving threads); each
    // worker re-establishes the freeze for its morsel's duration.
    StringInterner::ExecutionFreeze freeze(*doc.interner());
    Part& part = parts[static_cast<size_t>(m)];
    Status entry = GovernorPoll();
#if XQTP_FAULT_INJECTION
    if (entry.ok()) entry = fault::Poll("exec.parallel.morsel");
#endif
    if (!entry.ok()) {
      // A tripped governor's verdict is sticky, so every skipped morsel
      // reports the same status: the run drains cleanly without doing
      // the remaining work and no partial result leaks out.
      part.nodes = std::move(entry);
      stats_slots[static_cast<size_t>(m)] = scope.stats();
      return;
    }
    const MorselRange& mr = morsels[static_cast<size_t>(m)];
    part.nodes = EvalPatternSequential(
        self_tp, std::span(candidates).subspan(mr.begin, mr.end - mr.begin),
        algo);
    stats_slots[static_cast<size_t>(m)] = scope.stats();
  });
  MergeWorkerStats(stats_slots);

  // Error determinism: the lowest morsel's error is the one the
  // sequential evaluation would have hit first.
  for (Part& p : parts) {
    if (!p.nodes.ok()) {
      *out = p.nodes.status();
      return true;
    }
  }
  std::vector<std::vector<const Node*>> runs;
  runs.reserve(parts.size());
  for (Part& p : parts) runs.push_back(std::move(p.nodes).value());
  *out = MergeSortedRuns(std::move(runs));
  return true;
}

}  // namespace xqtp::exec
