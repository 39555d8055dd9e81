// Columnar TupleBatch unit tests: selection-vector edge cases (empty
// batch, all-filtered, composed selections), column sharing (including
// concurrent readers over shared columns — the TSan leg runs this
// binary), the row view, and the engine-level check of the batch pipeline
// against the Core interpreter with its ExecStats counters, and the cut
// of a pattern's output at tuple_batch_rows.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "exec/evaluator.h"
#include "exec/exec_stats.h"
#include "exec/tuple.h"
#include "workload/xmark_gen.h"
#include "workload/xmark_queries.h"

namespace xqtp::exec {
namespace {

using xdm::Item;
using xdm::Sequence;

Symbol Sym(uint32_t v) { return static_cast<Symbol>(v); }

/// A batch of `n` rows with one int column `field`, values 0..n-1.
TupleBatch IntBatch(Symbol field, size_t n) {
  TupleBatch b(n);
  TupleColumn col;
  col.field = field;
  for (size_t i = 0; i < n; ++i) {
    col.values.emplace_back(static_cast<int64_t>(i));
  }
  b.AddOwnedColumn(std::move(col));
  return b;
}

int64_t IntAt(const TupleBatch& b, size_t row, Symbol field) {
  const Item* v = b.Get(row, field);
  EXPECT_NE(v, nullptr);
  return v != nullptr ? v->integer() : -1;
}

TEST(TupleBatchTest, EmptyBatch) {
  TupleBatch b;
  EXPECT_EQ(b.rows(), 0u);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.Find(Sym(1)), nullptr);
  EXPECT_EQ(b.column_count(), 0u);
}

TEST(TupleBatchTest, ZeroFieldRowsAreLegal) {
  // kInputTuple over an ambient tuple with no fields: one row, no
  // columns (the row exists; every field reads as absent).
  TupleBatch b(1);
  EXPECT_EQ(b.rows(), 1u);
  EXPECT_EQ(b.column_count(), 0u);
  EXPECT_EQ(b.Get(0, Sym(7)), nullptr);
}

TEST(TupleBatchTest, SelectRowsIsZeroCopyAndComposes) {
  TupleBatch b = IntBatch(Sym(1), 8);
  const void* storage = b.columns()[0].column.get();

  TupleBatch odd = b.SelectRows({1, 3, 5, 7});
  EXPECT_EQ(odd.rows(), 4u);
  EXPECT_EQ(odd.physical_rows(), 8u);
  // The column is SHARED, not copied.
  EXPECT_EQ(odd.columns()[0].column.get(), storage);
  EXPECT_EQ(IntAt(odd, 0, Sym(1)), 1);
  EXPECT_EQ(IntAt(odd, 3, Sym(1)), 7);

  // Selecting out of a selected view composes through to physical rows.
  TupleBatch second = odd.SelectRows({0, 2});
  EXPECT_EQ(second.rows(), 2u);
  EXPECT_EQ(second.columns()[0].column.get(), storage);
  EXPECT_EQ(IntAt(second, 0, Sym(1)), 1);
  EXPECT_EQ(IntAt(second, 1, Sym(1)), 5);

  // Repeats are allowed (a view, not a set).
  TupleBatch dup = odd.SelectRows({1, 1});
  EXPECT_EQ(IntAt(dup, 0, Sym(1)), 3);
  EXPECT_EQ(IntAt(dup, 1, Sym(1)), 3);
}

TEST(TupleBatchTest, AllFilteredSelection) {
  TupleBatch b = IntBatch(Sym(1), 5);
  TupleBatch none = b.SelectRows({});
  EXPECT_EQ(none.rows(), 0u);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.physical_rows(), 5u);
}

TEST(TupleBatchTest, BroadcastColumnServesEveryRow) {
  TupleBatch b = IntBatch(Sym(1), 4);
  TupleColumn ctx;
  ctx.field = Sym(2);
  ctx.values.emplace_back(static_cast<int64_t>(42));
  b.AddBroadcastColumn(MakeColumn(std::move(ctx)));
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(IntAt(b, i, Sym(2)), 42);
  // Selection vectors do not apply to broadcast columns.
  TupleBatch view = b.SelectRows({3, 1});
  EXPECT_EQ(IntAt(view, 0, Sym(2)), 42);
  EXPECT_EQ(IntAt(view, 0, Sym(1)), 3);
}

TEST(TupleBatchTest, OneRowViewIsChargedAsOneRow) {
  // A dependent plan's IN is a one-row view of the outer batch; charging
  // the whole shared column per outer row made each batch O(rows^2). A
  // row holds one item per column.
  TupleBatch b = IntBatch(Sym(1), 1000);
  const int64_t row = static_cast<int64_t>(sizeof(Item));
  EXPECT_EQ(b.ApproxBytes(), 1000 * row);
  TupleBatch one = RowView(&b, 500).ToBatch();
  EXPECT_EQ(one.ApproxBytes(),
            row + static_cast<int64_t>(sizeof(uint32_t)));  // + selection
}

TEST(RowViewTest, ViewsOneBatchRow) {
  TupleBatch b = IntBatch(Sym(1), 4);
  RowView from_batch(&b, 2);
  EXPECT_TRUE(from_batch.valid());
  EXPECT_EQ(from_batch.batch(), &b);
  EXPECT_EQ(from_batch.row(), 2u);
  EXPECT_EQ(from_batch.Get(Sym(1))->integer(), 2);
  EXPECT_EQ(from_batch.Get(Sym(9)), nullptr);

  // ToBatch on a batch-backed row shares the column (selection of one).
  TupleBatch one = from_batch.ToBatch();
  EXPECT_EQ(one.rows(), 1u);
  EXPECT_EQ(one.columns()[0].column.get(), b.columns()[0].column.get());
  EXPECT_EQ(IntAt(one, 0, Sym(1)), 2);

  RowView invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(invalid.Get(Sym(1)), nullptr);
  EXPECT_EQ(invalid.ToBatch().rows(), 0u);
}

// Shared columns under concurrency: two threads reading sibling batches
// that share one column must be race-free. The TSan CI leg runs this
// test; the assertions also pin down value correctness.
TEST(TupleBatchTest, ConcurrentReadersOverSharedColumns) {
  constexpr size_t kRows = 4096;
  TupleBatch base = IntBatch(Sym(1), kRows);
  std::vector<uint32_t> evens, odds;
  for (uint32_t i = 0; i < kRows; i += 2) evens.push_back(i);
  for (uint32_t i = 1; i < kRows; i += 2) odds.push_back(i);
  const TupleBatch even_view = base.SelectRows(evens);
  const TupleBatch odd_view = base.SelectRows(odds);

  // The sum of the values of `view`'s rows, read four times over.
  const auto sum4 = [](const TupleBatch& view) {
    int64_t sum = 0;
    for (size_t round = 0; round < 4; ++round) {
      for (size_t i = 0; i < view.rows(); ++i) {
        sum += view.Get(i, Sym(1))->integer();
      }
    }
    return sum;
  };
  int64_t even_sum = 0;
  std::thread reader([&]() { even_sum = sum4(even_view); });
  const int64_t odd_sum = sum4(odd_view);
  reader.join();
  const auto half = static_cast<int64_t>(kRows / 2);
  EXPECT_EQ(even_sum, 4 * half * (static_cast<int64_t>(kRows) - 2) / 2);
  EXPECT_EQ(odd_sum, 4 * half * static_cast<int64_t>(kRows) / 2);
  // base still reads its original values through the shared storage.
  EXPECT_EQ(IntAt(base, 0, Sym(1)), 0);
  EXPECT_EQ(IntAt(base, kRows - 1, Sym(1)), static_cast<int64_t>(kRows) - 1);
}

// Engine-level differential: the batch pipeline is bit-identical to the
// Core interpreter on the XMark corpus at every batch size, batch
// boundaries included (tiny tuple_batch_rows), and its ExecStats
// counters show the batches it yields.
class BatchPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::XmarkParams p;
    p.factor = 0.02;
    doc_ = engine_.AddDocument("x",
                               workload::GenerateXmark(p, engine_.interner()));
    globals_ = {{"input", {xdm::Item(doc_->root())}}};
  }

  Result<Sequence> Run(const engine::CompiledQuery& cq,
                       const EvalOptions& opts, ExecStats* stats) {
    ScopedExecStats scope;
    auto res = engine_.Execute(cq, globals_, opts);
    *stats = scope.stats();
    return res;
  }

  engine::Engine engine_;
  const xml::Document* doc_;
  engine::Engine::GlobalMap globals_;
};

TEST_F(BatchPipelineTest, BitIdenticalToCoreInterpOnXmarkCorpus) {
  for (const workload::XmarkQuery& q : workload::XmarkQueryCorpus()) {
    auto cq = engine_.Compile(q.text);
    ASSERT_TRUE(cq.ok()) << q.id << ": " << cq.status().ToString();
    auto ref = engine_.Execute(*cq, globals_, EvalOptions{},
                               engine::PlanChoice::kCoreInterp);
    ASSERT_TRUE(ref.ok()) << q.id << ": " << ref.status().ToString();

    for (int batch_rows : {1024, 3, 1}) {
      EvalOptions batch;
      batch.threads = 1;
      batch.tuple_batch_rows = batch_rows;
      auto res = engine_.Execute(*cq, globals_, batch);
      ASSERT_TRUE(res.ok())
          << q.id << " batch_rows=" << batch_rows << ": "
          << res.status().ToString();
      ASSERT_EQ(res->size(), ref->size())
          << q.id << " batch_rows=" << batch_rows;
      for (size_t i = 0; i < res->size(); ++i) {
        ASSERT_TRUE((*res)[i] == (*ref)[i])
            << q.id << " batch_rows=" << batch_rows << " item " << i;
      }
    }
  }
}

// A pattern's output leaves in batches of at most tuple_batch_rows: the
// 2,550 persons of XMark factor 1.0 leave in three batches, not one.
TEST(PatternBatchesTest, PatternOutputIsCutAtTupleBatchRows) {
  engine::Engine e;
  workload::XmarkParams p;
  p.factor = 1.0;
  const xml::Document* doc =
      e.AddDocument("x", workload::GenerateXmark(p, e.interner()));
  engine::Engine::GlobalMap globals{{"input", {Item(doc->root())}}};
  auto cq = e.Compile("$input/site/people/person");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  auto ref = e.Execute(*cq, globals, EvalOptions{},
                       engine::PlanChoice::kCoreInterp);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  ASSERT_EQ(ref->size(), 2550u);
  for (int batch_rows : {1024, 4096}) {
    EvalOptions opts;
    opts.threads = 1;
    opts.tuple_batch_rows = batch_rows;
    ScopedExecStats scope;
    auto res = e.Execute(*cq, globals, opts);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(*res, *ref) << "batch_rows=" << batch_rows;
    // One batch carries the document root into the pattern; the rest are
    // the pattern's output.
    const int64_t pattern_batches =
        (2550 + batch_rows - 1) / batch_rows;
    EXPECT_EQ(scope.stats().batches, 1 + pattern_batches)
        << "batch_rows=" << batch_rows;
  }
}

TEST_F(BatchPipelineTest, CountsBatchesAndMaterializedTuples) {
  // A pattern pipeline with real fan-out: the pattern builds one output
  // batch of binding rows and broadcasts the input tuple's fields.
  auto cq = engine_.Compile("$input//item//name");
  ASSERT_TRUE(cq.ok());

  EvalOptions batch;
  batch.threads = 1;
  ExecStats batch_stats;
  ASSERT_TRUE(Run(*cq, batch, &batch_stats).ok());

  EXPECT_GT(batch_stats.batches, 0);
  EXPECT_GT(batch_stats.tuples_materialized, 0);
  // The counters surface through the human-readable stats line.
  EXPECT_NE(batch_stats.ToString().find("batches="), std::string::npos);
  EXPECT_NE(batch_stats.ToString().find("cow_column_copies="),
            std::string::npos);
}

}  // namespace
}  // namespace xqtp::exec
