// Heap allocations of the tuple pipeline: a tuple field holds one
// xdm::Item in its column (exec/tuple.h), so binding a node to a tuple
// allocates nothing per row. Two XMark queries that bind thousands of
// nodes must run on far fewer heap allocations than they bind nodes.
//
// This binary replaces the global allocation functions to count every
// operator new. Each form forwards to malloc/free, as plan_cache_test's
// do, so the replacement works under the ASan and TSan allocators too;
// the aligned forms keep their defaults (no tuple holds an over-aligned
// type).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "engine/engine.h"
#include "exec/evaluator.h"
#include "workload/xmark_gen.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedNew(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xqtp {
namespace {

class TupleAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    engine_ = new engine::Engine();
    workload::XmarkParams p;
    p.factor = 1.0;
    const xml::Document* doc = engine_->AddDocument(
        "x", workload::GenerateXmark(p, engine_->interner()));
    globals_ = new engine::Engine::GlobalMap{
        {"input", {xdm::Item(doc->root())}}};
  }

  static void TearDownTestSuite() {
    delete globals_;
    delete engine_;
  }

  /// Executes `query` once to build the lazy tag indexes it scans, then
  /// again with every allocation counted. Returns the counted run's
  /// result; `*allocations` is its heap allocation count.
  static xdm::Sequence CountedRun(const std::string& query,
                                  int64_t* allocations) {
    auto cq = engine_->Compile(query);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    if (!cq.ok()) return {};
    exec::EvalOptions opts;
    opts.algo = exec::PatternAlgo::kCostBased;
    opts.threads = 1;
    auto warm = engine_->Execute(*cq, *globals_, opts);
    EXPECT_TRUE(warm.ok()) << warm.status().ToString();
    const int64_t before = g_allocations.load(std::memory_order_relaxed);
    Result<xdm::Sequence> res = engine_->Execute(*cq, *globals_, opts);
    *allocations = g_allocations.load(std::memory_order_relaxed) - before;
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? std::move(res).value() : xdm::Sequence{};
  }

  static engine::Engine* engine_;
  static engine::Engine::GlobalMap* globals_;
};

engine::Engine* TupleAllocTest::engine_ = nullptr;
engine::Engine::GlobalMap* TupleAllocTest::globals_ = nullptr;

// The paper's linear plan: 2,040 items, one pattern binding each as a row.
TEST_F(TupleAllocTest, CountedItemsTakeFewerAllocationsThanRows) {
  int64_t allocations = 0;
  xdm::Sequence res =
      CountedRun("fn:count($input/site/regions/*/item)", &allocations);
  ASSERT_EQ(res.size(), 1u);
  const int64_t bound = res[0].integer();
  ASSERT_GT(bound, 1000);
  EXPECT_LT(allocations * 8, bound)
      << allocations << " heap allocations for " << bound << " bound nodes";
}

// Each bound node also leaves the pipeline as a result item.
TEST_F(TupleAllocTest, ReturnedNodesTakeFewerAllocationsThanRows) {
  int64_t allocations = 0;
  xdm::Sequence res = CountedRun(
      "$input/site/open_auctions/open_auction/bidder/date", &allocations);
  const auto bound = static_cast<int64_t>(res.size());
  ASSERT_GT(bound, 1000);
  EXPECT_LT(allocations * 8, bound)
      << allocations << " heap allocations for " << bound << " bound nodes";
}

}  // namespace
}  // namespace xqtp
