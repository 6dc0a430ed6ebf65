#include <gtest/gtest.h>

#include "db/database.h"

namespace cwf::db {
namespace {

std::unique_ptr<Table> MakeTable() {
  auto t = std::make_unique<Table>(
      "t", Schema({{"id", ColumnType::kInt64},
                   {"seg", ColumnType::kInt64},
                   {"v", ColumnType::kDouble}}));
  return t;
}

TEST(TableTest, InsertAndCount) {
  auto t = MakeTable();
  EXPECT_EQ(t->RowCount(), 0u);
  ASSERT_TRUE(t->Insert({Value(1), Value(10), Value(1.5)}).ok());
  ASSERT_TRUE(t->Insert({Value(2), Value(20), Value(2.5)}).ok());
  EXPECT_EQ(t->RowCount(), 2u);
}

TEST(TableTest, InsertRejectsBadRows) {
  auto t = MakeTable();
  EXPECT_FALSE(t->Insert({Value(1)}).ok());
  EXPECT_FALSE(t->Insert({Value("x"), Value(1), Value(2.0)}).ok());
}

TEST(TableTest, SelectWithPredicate) {
  auto t = MakeTable();
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t->Insert({Value(i), Value(i % 3), Value(i * 1.0)}).ok());
  }
  auto rows = t->Select(Eq("seg", Value(1)));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 3u);  // ids 1, 4, 7
  auto all = t->Select(True());
  EXPECT_EQ(all.value().size(), 10u);
  auto none = t->Select(Eq("seg", Value(99)));
  EXPECT_TRUE(none.value().empty());
}

TEST(TableTest, SelectOneReturnsFirstMatch) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Insert({Value(1), Value(5), Value(1.0)}).ok());
  ASSERT_TRUE(t->Insert({Value(2), Value(5), Value(2.0)}).ok());
  auto one = t->SelectOne(Eq("seg", Value(5)));
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(one.value().has_value());
  auto missing = t->SelectOne(Eq("seg", Value(9)));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value().has_value());
}

TEST(TableTest, UpdateMutatesMatchingRows) {
  auto t = MakeTable();
  for (int64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(t->Insert({Value(i), Value(0), Value(0.0)}).ok());
  }
  auto n = t->Update(Lt("id", Value(2)),
                     [](Row* row) { (*row)[2] = Value(9.0); });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  auto nine = t->Select(Eq("v", Value(9.0)));
  EXPECT_EQ(nine.value().size(), 2u);
}

TEST(TableTest, DeleteRemovesAndReusesSlots) {
  auto t = MakeTable();
  for (int64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(t->Insert({Value(i), Value(0), Value(0.0)}).ok());
  }
  auto n = t->Delete(Ge("id", Value(3)));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  EXPECT_EQ(t->RowCount(), 3u);
  // Freed slots get reused by new inserts.
  ASSERT_TRUE(t->Insert({Value(100), Value(1), Value(1.0)}).ok());
  EXPECT_EQ(t->RowCount(), 4u);
  EXPECT_EQ(t->Select(True()).value().size(), 4u);
}

TEST(TableTest, UpsertInsertsThenReplaces) {
  auto t = MakeTable();
  auto r1 = t->Upsert({"id"}, {Value(1), Value(10), Value(1.0)});
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value());  // inserted
  auto r2 = t->Upsert({"id"}, {Value(1), Value(20), Value(2.0)});
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value());  // replaced
  EXPECT_EQ(t->RowCount(), 1u);
  auto row = t->SelectOne(Eq("id", Value(1))).value();
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ((*row)[1].AsInt(), 20);
}

TEST(TableTest, UpsertCompositeKey) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Upsert({"id", "seg"}, {Value(1), Value(1), Value(1.0)}).ok());
  ASSERT_TRUE(t->Upsert({"id", "seg"}, {Value(1), Value(2), Value(2.0)}).ok());
  EXPECT_EQ(t->RowCount(), 2u);  // different composite keys
  ASSERT_TRUE(t->Upsert({"id", "seg"}, {Value(1), Value(2), Value(9.0)}).ok());
  EXPECT_EQ(t->RowCount(), 2u);
}

TEST(TableTest, UniqueIndexRejectsDuplicates) {
  auto t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("pk", {"id"}, /*unique=*/true).ok());
  ASSERT_TRUE(t->Insert({Value(1), Value(0), Value(0.0)}).ok());
  auto dup = t->Insert({Value(1), Value(1), Value(1.0)});
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(TableTest, IndexBackfillAndUniquenessCheck) {
  auto t = MakeTable();
  ASSERT_TRUE(t->Insert({Value(1), Value(0), Value(0.0)}).ok());
  ASSERT_TRUE(t->Insert({Value(1), Value(1), Value(1.0)}).ok());
  // Backfilling a unique index over duplicate keys must fail.
  EXPECT_FALSE(t->CreateIndex("pk", {"id"}, true).ok());
  // Non-unique backfill succeeds.
  ASSERT_TRUE(t->CreateIndex("by_id", {"id"}, false).ok());
  EXPECT_EQ(t->Select(Eq("id", Value(1))).value().size(), 2u);
}

TEST(TableTest, DuplicateIndexNameRejected) {
  auto t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("i", {"id"}).ok());
  EXPECT_EQ(t->CreateIndex("i", {"seg"}).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, IndexAcceleratesEqualityScans) {
  auto t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("by_seg", {"seg"}).ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->Insert({Value(i), Value(i % 10), Value(0.0)}).ok());
  }
  const uint64_t scans_before = t->full_scans();
  auto rows = t->Select(Eq("seg", Value(3)));
  EXPECT_EQ(rows.value().size(), 10u);
  EXPECT_EQ(t->full_scans(), scans_before);  // no full scan
  EXPECT_GT(t->index_lookups(), 0u);
}

TEST(TableTest, IndexStaysConsistentAcrossUpdateDelete) {
  auto t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("by_seg", {"seg"}).ok());
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(t->Insert({Value(i), Value(i % 2), Value(0.0)}).ok());
  }
  ASSERT_TRUE(
      t->Update(Eq("seg", Value(0)), [](Row* r) { (*r)[1] = Value(5); }).ok());
  EXPECT_EQ(t->Select(Eq("seg", Value(0))).value().size(), 0u);
  EXPECT_EQ(t->Select(Eq("seg", Value(5))).value().size(), 10u);
  ASSERT_TRUE(t->Delete(Eq("seg", Value(5))).ok());
  EXPECT_EQ(t->Select(Eq("seg", Value(5))).value().size(), 0u);
  EXPECT_EQ(t->RowCount(), 10u);
}

TEST(TableTest, IndexDoesNotChangeResults) {
  // The same rows in an indexed and an unindexed table: every predicate
  // must select the same rows from both. An int cell of the DOUBLE column
  // is stored as a double, and a probe value is converted to the column's
  // type; one with no exact value in it (7.5 on an INT64 column, null)
  // matches nothing, as in the scan.
  auto make = [](bool indexed) {
    auto t = std::make_unique<Table>(
        "t", Schema({{"k", ColumnType::kInt64},
                     {"d", ColumnType::kDouble},
                     {"s", ColumnType::kString}}));
    if (indexed) {
      CWF_CHECK(t->CreateIndex("by_k", {"k"}).ok());
      CWF_CHECK(t->CreateIndex("by_d", {"d"}).ok());
      CWF_CHECK(t->CreateIndex("by_s", {"s"}).ok());
    }
    const std::vector<Row> rows = {{Value(7), Value(3), Value("a")},
                                   {Value(7), Value(3.0), Value("b")},
                                   {Value(8), Value(2.5), Value()},
                                   {Value(), Value(), Value("a")},
                                   {Value(9), Value(7.0), Value("c")}};
    for (const Row& row : rows) {
      CWF_CHECK(t->Insert(row).ok());
    }
    return t;
  };
  auto indexed = make(true);
  auto plain = make(false);
  const std::vector<std::pair<PredicatePtr, size_t>> cases = {
      {Eq("d", Value(3.0)), 2},      {Eq("d", Value(3)), 2},
      {Eq("k", Value(7.0)), 2},      {Eq("k", Value(7)), 2},
      {Eq("k", Value(7.5)), 0},      {Eq("d", Value(7)), 1},
      {Eq("d", Value(2.5)), 1},      {Eq("k", Value()), 0},
      {Eq("d", Value()), 0},         {Eq("k", Value("7")), 0},
      {Eq("s", Value("a")), 2},      {Eq("s", Value(1)), 0},
      {Eq("k", Value(9.0)), 1},      {Eq("d", Value(true)), 0},
  };
  for (const auto& [predicate, expected] : cases) {
    SCOPED_TRACE(predicate->ToString());
    const uint64_t lookups = indexed->index_lookups();
    auto with_index = indexed->Select(predicate);
    auto without = plain->Select(predicate);
    ASSERT_TRUE(with_index.ok() && without.ok());
    EXPECT_EQ(indexed->index_lookups(), lookups + 1);
    EXPECT_EQ(with_index.value(), without.value());
    EXPECT_EQ(with_index.value().size(), expected);
  }
  // The int 3 was stored as 3.0.
  EXPECT_TRUE(plain->Select(Eq("s", Value("a"))).value()[0][1].is_double());
}

TEST(TableTest, Aggregates) {
  auto t = MakeTable();
  for (int64_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(t->Insert({Value(i), Value(0), Value(i * 1.0)}).ok());
  }
  EXPECT_EQ(t->Aggregate(AggKind::kCount, "", True()).value().AsInt(), 4);
  EXPECT_DOUBLE_EQ(t->Aggregate(AggKind::kSum, "v", True()).value().AsDouble(),
                   10.0);
  EXPECT_DOUBLE_EQ(t->Aggregate(AggKind::kAvg, "v", True()).value().AsDouble(),
                   2.5);
  EXPECT_DOUBLE_EQ(t->Aggregate(AggKind::kMin, "v", True()).value().AsDouble(),
                   1.0);
  EXPECT_DOUBLE_EQ(t->Aggregate(AggKind::kMax, "v", True()).value().AsDouble(),
                   4.0);
  // Filtered aggregate.
  EXPECT_EQ(t->Aggregate(AggKind::kCount, "", Gt("v", Value(2.0)))
                .value()
                .AsInt(),
            2);
}

TEST(TableTest, AggregatesOverEmptySet) {
  auto t = MakeTable();
  EXPECT_EQ(t->Aggregate(AggKind::kCount, "", True()).value().AsInt(), 0);
  EXPECT_TRUE(t->Aggregate(AggKind::kAvg, "v", True()).value().is_null());
  EXPECT_TRUE(t->Aggregate(AggKind::kMax, "v", True()).value().is_null());
}

TEST(TableTest, TruncateKeepsIndexes) {
  auto t = MakeTable();
  ASSERT_TRUE(t->CreateIndex("by_id", {"id"}).ok());
  ASSERT_TRUE(t->Insert({Value(1), Value(1), Value(1.0)}).ok());
  t->Truncate();
  EXPECT_EQ(t->RowCount(), 0u);
  ASSERT_TRUE(t->Insert({Value(1), Value(1), Value(1.0)}).ok());
  EXPECT_EQ(t->Select(Eq("id", Value(1))).value().size(), 1u);
}

TEST(DatabaseTest, TableRegistry) {
  Database db;
  auto t1 = db.CreateTable("a", Schema({{"x", ColumnType::kInt64}}));
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(db.CreateTable("a", Schema(std::vector<Column>{})).ok());
  EXPECT_TRUE(db.GetTable("a").ok());
  EXPECT_FALSE(db.GetTable("b").ok());
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"a"});
  ASSERT_TRUE(db.DropTable("a").ok());
  EXPECT_FALSE(db.GetTable("a").ok());
  EXPECT_FALSE(db.DropTable("a").ok());
}

}  // namespace
}  // namespace cwf::db
