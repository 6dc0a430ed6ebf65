// Thread-safety of the embedded store: the PNCWF OS-thread mode has several
// actor threads reading and writing tables concurrently.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "db/database.h"

namespace cwf::db {
namespace {

TEST(TableConcurrencyTest, ParallelUpsertsAndReads) {
  Table table("t", Schema({{"k", ColumnType::kInt64},
                           {"v", ColumnType::kInt64}}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, true).ok());
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeys = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int64_t k = (t * 7 + i) % kKeys;
        if (i % 3 == 0) {
          auto rows = table.Select(Eq("k", Value(k)));
          if (!rows.ok()) {
            ++failures;
          }
        } else {
          auto up = table.Upsert({"k"}, {Value(k), Value(int64_t{i})});
          if (!up.ok()) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  // Upserts on kKeys distinct keys: exactly kKeys rows, index consistent.
  EXPECT_EQ(table.RowCount(), static_cast<size_t>(kKeys));
  for (int64_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(table.Select(Eq("k", Value(k))).value().size(), 1u) << k;
  }
}

TEST(TableConcurrencyTest, ParallelInsertDeleteKeepsCountsSane) {
  Table table("t", Schema({{"k", ColumnType::kInt64}}));
  std::vector<std::thread> threads;
  std::atomic<int64_t> inserted{0};
  std::atomic<int64_t> deleted{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; ++i) {
        const int64_t k = t * 10000 + i;
        if (table.Insert({Value(k)}).ok()) {
          inserted.fetch_add(1);
        }
        if (i % 2 == 0) {
          auto n = table.Delete(Eq("k", Value(k)));
          if (n.ok()) {
            deleted.fetch_add(static_cast<int64_t>(n.value()));
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(static_cast<int64_t>(table.RowCount()),
            inserted.load() - deleted.load());
}

// PNCWF actors share tables and may share prepared statements: one
// PreparedQuery (and one PreparedUpsert) executed from several threads at
// once, each with its own parameters, while writers change the rows.
TEST(TableConcurrencyTest, SharedPreparedStatementsAcrossThreads) {
  Table table("t", Schema({{"k", ColumnType::kInt64},
                           {"v", ColumnType::kDouble}}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, true).ok());
  const PreparedQuery lookup = table.Prepare(Eq("k", Param(0))).value();
  const PreparedQuery range =
      table.Prepare(And(Ge("k", Param(0)), Lt("k", Param(1)))).value();
  const PreparedUpsert upsert = table.PrepareUpsert({"k"}).value();
  constexpr int kKeys = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Row row;
      for (int i = 0; i < 2000; ++i) {
        const auto k = static_cast<int64_t>((t * 5 + i) % kKeys);
        if (t % 2 == 0) {
          // An int cell for the DOUBLE column is widened on the way in.
          failures += !table.Upsert(upsert, {Value(k), Value(int64_t{i})}).ok();
          continue;
        }
        const Value key[] = {Value(k), Value(k + 4)};
        auto found = table.SelectOne(lookup, key, &row);
        failures += !found.ok() || (found.value() && row[1].is_int());
        auto n = table.Count(range, key);
        failures += !n.ok() || n.value() > 4;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(table.RowCount(), static_cast<size_t>(kKeys));
  const Value all[] = {Value(int64_t{0}), Value(int64_t{kKeys})};
  EXPECT_EQ(table.Count(range, all).value(), static_cast<size_t>(kKeys));
}

// Regression (thread-safety sweep): index_lookups()/full_scans() read the
// mutable access-path counters that every Select mutates under the table
// lock — the accessors themselves must lock too, or TSan flags the read.
TEST(TableConcurrencyTest, StatsAccessorsRaceFreeAgainstSelects) {
  Table table("t", Schema({{"k", ColumnType::kInt64}}));
  ASSERT_TRUE(table.CreateIndex("pk", {"k"}, true).ok());
  for (int64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(table.Insert({Value(k)}).ok());
  }
  std::atomic<bool> stop{false};
  std::thread scanner([&] {
    for (int i = 0; i < 4000; ++i) {
      // Alternate an indexed point select with a predicate-less full scan
      // so both counters keep moving.
      (void)table.Select(Eq("k", Value(int64_t{i % 16})));
      (void)table.Select(Gt("k", Value(int64_t{-1})));
    }
    stop.store(true);
  });
  uint64_t last_lookups = 0;
  uint64_t last_scans = 0;
  while (!stop.load()) {
    const uint64_t lookups = table.index_lookups();
    const uint64_t scans = table.full_scans();
    // Monotone counters: concurrent reads may lag but never go backwards.
    EXPECT_GE(lookups, last_lookups);
    EXPECT_GE(scans, last_scans);
    last_lookups = lookups;
    last_scans = scans;
  }
  scanner.join();
  EXPECT_GT(table.index_lookups(), 0u);
  EXPECT_GT(table.full_scans(), 0u);
}

}  // namespace
}  // namespace cwf::db
