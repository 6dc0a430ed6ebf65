// Differential test of the prepared-query path: an indexed table against an
// unindexed twin and a naive evaluator.
//
// Every seed builds a table with some index layout (none, non-unique,
// composite, unique) and an unindexed twin, and drives both with the same
// random insert/upsert/update/delete churn over rows with null cells and
// int cells in a DOUBLE column. After every step both tables must hold the
// same rows in the same row-id order, and a statement that violates a
// unique index must fail exactly when a naive check of the twin's rows says
// so. Random AND/OR/NOT predicates with constants and parameter slots are
// prepared once per table and executed with many parameter sets; each
// execution must return the rows the naive evaluator selects from the twin,
// in order, and SUM/AVG must match the naive sum bit for bit.

#include <gtest/gtest.h>

#include <random>

#include "db/table.h"

namespace cwf::db {
namespace {

constexpr size_t kA = 0, kB = 1, kD = 2, kS = 3;
constexpr uint32_t kParams = 4;

Schema TestSchema() {
  return Schema({{"a", ColumnType::kInt64},
                 {"b", ColumnType::kInt64},
                 {"d", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
}

const char* const kColumnNames[] = {"a", "b", "d", "s"};

// -- Naive reference semantics ----------------------------------------------

/// Exact numeric value: long double holds every int64 and double exactly.
bool NumericOf(const Value& v, long double* out) {
  if (v.is_int()) {
    *out = static_cast<long double>(v.AsInt());
    return true;
  }
  if (v.is_double()) {
    *out = static_cast<long double>(v.AsDouble());
    return true;
  }
  return false;
}

bool NaiveCompare(const Value& cell, CmpOp op, const Value& operand) {
  if (cell.is_null() || operand.is_null()) {
    return false;
  }
  int c;
  long double x, y;
  if (NumericOf(cell, &x) && NumericOf(operand, &y)) {
    c = x < y ? -1 : (x > y ? 1 : 0);
  } else {
    c = cell == operand ? 0 : (cell < operand ? -1 : 1);
  }
  switch (op) {
    case CmpOp::kEq: return c == 0;
    case CmpOp::kNe: return c != 0;
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
  }
  return false;
}

bool NaiveMatches(const Predicate& p, const Row& row,
                  const std::vector<Value>& params) {
  switch (p.kind()) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCmp: {
      size_t column = 0;
      while (p.column() != kColumnNames[column]) {
        ++column;
      }
      const Value& operand =
          p.param() >= 0 ? params[static_cast<size_t>(p.param())] : p.value();
      return NaiveCompare(row[column], p.op(), operand);
    }
    case Predicate::Kind::kAnd:
      for (const auto& c : p.children()) {
        if (!NaiveMatches(*c, row, params)) return false;
      }
      return true;
    case Predicate::Kind::kOr:
      for (const auto& c : p.children()) {
        if (NaiveMatches(*c, row, params)) return true;
      }
      return false;
    case Predicate::Kind::kNot:
      return !NaiveMatches(*p.children()[0], row, params);
  }
  return false;
}

/// Stored form of a row: int cells of the DOUBLE column become doubles.
Row Widened(Row row) {
  if (row[kD].is_int()) {
    row[kD] = Value(static_cast<double>(row[kD].AsInt()));
  }
  return row;
}

// -- Random generation --------------------------------------------------------

class Gen {
 public:
  explicit Gen(uint64_t seed) : rng_(seed) {}

  size_t Uniform(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }
  bool Chance(double p) {
    return std::uniform_real_distribution<>(0, 1)(rng_) < p;
  }

  /// A numeric value near the cell domain: small ints, their double twins,
  /// and fractions whose sums depend on the order of addition.
  Value Number() {
    static const double kDoubles[] = {0.1, 0.7, 1.0 / 3, 1.0, 2.0, 2.5};
    if (Chance(0.5)) {
      return Value(static_cast<int64_t>(Uniform(4)));
    }
    return Value(kDoubles[Uniform(6)]);
  }

  Value Cell(size_t column) {
    if (Chance(0.12)) {
      return Value();
    }
    switch (column) {
      case kA:
        return Value(static_cast<int64_t>(Uniform(5)));
      case kB:
        return Value(static_cast<int64_t>(Uniform(3)));
      case kD:
        return Number();  // an int here is widened on insert
      default:
        return Value(Chance(0.5) ? "x" : "y");
    }
  }

  Row RandomRow() { return {Cell(kA), Cell(kB), Cell(kD), Cell(kS)}; }

  /// An operand: mostly of the column's kind, sometimes a mismatch.
  Value Operand(size_t column) {
    const size_t r = Uniform(20);
    if (r == 0) return Value();
    if (r == 1) return Value("x");
    if (r == 2) return Value(true);
    if (column == kS) return Value(Chance(0.5) ? "x" : "y");
    return Number();
  }

  std::vector<Value> Params() {
    std::vector<Value> params;
    for (uint32_t i = 0; i < kParams; ++i) {
      params.push_back(Operand(Uniform(3)));
    }
    return params;
  }

  PredicatePtr Leaf() {
    const size_t column = Uniform(4);
    const auto op = static_cast<CmpOp>(Uniform(6));
    if (Chance(0.5)) {
      return Cmp(kColumnNames[column], op,
                 Param(static_cast<uint32_t>(Uniform(kParams))));
    }
    return Cmp(kColumnNames[column], op, Operand(column));
  }

  PredicatePtr Tree(int depth) {
    if (depth == 0 || Chance(0.4)) {
      return Leaf();
    }
    switch (Uniform(3)) {
      case 0: {
        std::vector<PredicatePtr> children;
        for (size_t i = 0, n = 1 + Uniform(3); i < n; ++i) {
          children.push_back(Tree(depth - 1));
        }
        return And(std::move(children));
      }
      case 1:
        return Or(Tree(depth - 1), Tree(depth - 1));
      default:
        return Not(Tree(depth - 1));
    }
  }

  /// Half the statements pin a or (a, d) by equality, so index layouts
  /// over those columns get probed.
  PredicatePtr Statement() {
    if (Chance(0.5)) {
      return Tree(3);
    }
    std::vector<PredicatePtr> conjuncts = {
        Eq("a", Param(static_cast<uint32_t>(Uniform(kParams))))};
    if (Chance(0.6)) {
      conjuncts.push_back(Chance(0.5) ? Eq("d", Param(1))
                                      : Eq("d", Operand(kD)));
    }
    if (Chance(0.7)) {
      conjuncts.push_back(Tree(2));
    }
    return And(std::move(conjuncts));
  }

 private:
  std::mt19937_64 rng_;
};

// -- The differential run ---------------------------------------------------

struct Layout {
  const char* name;
  std::vector<std::pair<std::vector<std::string>, bool>> indexes;
};

const std::vector<Layout>& Layouts() {
  static const std::vector<Layout> layouts = {
      {"none", {}},
      {"a", {{{"a"}, false}}},
      {"a_d", {{{"a", "d"}, false}, {{"d"}, false}}},
      {"unique_a_b", {{{"a", "b"}, true}, {{"a"}, false}}},
      {"unique_d", {{{"d"}, true}}},
  };
  return layouts;
}

const std::vector<std::vector<std::string>>& UpsertKeys() {
  static const std::vector<std::vector<std::string>> keys = {
      {"a"}, {"a", "b"}, {"a", "d"}, {"d"}};
  return keys;
}

class Differential {
 public:
  Differential(uint64_t seed, const Layout& layout)
      : gen_(seed),
        indexed_("indexed", TestSchema()),
        twin_("twin", TestSchema()) {
    for (const auto& [columns, unique] : layout.indexes) {
      std::string name = "ix";
      for (const std::string& c : columns) name += "_" + c;
      CWF_CHECK(indexed_.CreateIndex(name, columns, unique).ok());
      unique_.push_back(unique ? ColumnsOf(columns) : std::vector<size_t>{});
    }
    for (const auto& key : UpsertKeys()) {
      upserts_.push_back({indexed_.PrepareUpsert(key).value(),
                          twin_.PrepareUpsert(key).value(), ColumnsOf(key)});
    }
  }

  void Run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
      const size_t r = gen_.Uniform(20);
      if (r < 9) {
        Insert();
      } else if (r < 13) {
        Upsert();
      } else if (r < 14) {
        Update();
      } else if (r < 16) {
        Delete();
      } else {
        Query();
      }
      ExpectSameStorage();
    }
  }

  size_t index_executions() const { return index_executions_; }

 private:
  struct Upserts {
    PreparedUpsert indexed;
    PreparedUpsert twin;
    std::vector<size_t> key;
  };

  static std::vector<size_t> ColumnsOf(const std::vector<std::string>& names) {
    return TestSchema().ColumnIndexes(names).value();
  }

  /// Whether `row` would collide on a unique index with a stored row other
  /// than `ignore` (keys compare as Values, so nulls collide).
  bool Collides(const Row& row, const std::vector<Row>& rows,
                std::optional<size_t> ignore) const {
    for (const std::vector<size_t>& key : unique_) {
      if (key.empty()) continue;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (ignore == i) continue;
        bool same = true;
        for (size_t c : key) same = same && rows[i][c] == row[c];
        if (same) return true;
      }
    }
    return false;
  }

  void Insert() {
    const Row row = gen_.RandomRow();
    const bool expect_ok = !Collides(Widened(row), Rows(), std::nullopt);
    auto inserted = indexed_.Insert(row);
    ASSERT_EQ(inserted.ok(), expect_ok) << inserted.status().ToString();
    if (expect_ok) {
      auto twin_id = twin_.Insert(row);
      ASSERT_TRUE(twin_id.ok());
      EXPECT_EQ(inserted.value(), twin_id.value());
    }
  }

  void Upsert() {
    const Upserts& u = upserts_[gen_.Uniform(upserts_.size())];
    const Row row = gen_.RandomRow();
    const Row stored = Widened(row);
    const std::vector<Row> rows = Rows();
    std::optional<size_t> target;
    for (size_t i = 0; i < rows.size() && !target.has_value(); ++i) {
      bool same = true;
      for (size_t c : u.key) {
        same = same && NaiveCompare(rows[i][c], CmpOp::kEq, stored[c]);
      }
      if (same) target = i;
    }
    const bool expect_ok = !Collides(stored, rows, target);
    auto replaced = indexed_.Upsert(u.indexed, row);
    ASSERT_EQ(replaced.ok(), expect_ok) << replaced.status().ToString();
    if (expect_ok) {
      EXPECT_EQ(replaced.value(), target.has_value());
      ASSERT_TRUE(twin_.Upsert(u.twin, row).ok());
    }
  }

  void Update() {
    // Rewrite the string column, which no unique index covers.
    const PredicatePtr p = gen_.Tree(2);
    const std::vector<Value> params = gen_.Params();
    const Value s = gen_.Cell(kS);
    auto set_s = [&](Row* row) { (*row)[kS] = s; };
    auto a = indexed_.Update(indexed_.Prepare(p).value(), params, set_s);
    auto b = twin_.Update(twin_.Prepare(p).value(), params, set_s);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value()) << p->ToString();
  }

  void Delete() {
    const PredicatePtr p = gen_.Statement();
    const std::vector<Value> params = gen_.Params();
    size_t expected = 0;
    for (const Row& row : Rows()) expected += NaiveMatches(*p, row, params);
    auto a = indexed_.Delete(indexed_.Prepare(p).value(), params);
    auto b = twin_.Delete(twin_.Prepare(p).value(), params);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), expected) << p->ToString();
    EXPECT_EQ(b.value(), expected) << p->ToString();
  }

  void Query() {
    const PredicatePtr p = gen_.Statement();
    const PreparedQuery on_indexed = indexed_.Prepare(p).value();
    const PreparedQuery on_twin = twin_.Prepare(p).value();
    index_executions_ += on_indexed.uses_index() ? 8 : 0;
    const std::vector<Row> rows = Rows();
    Row one;
    for (int run = 0; run < 8; ++run) {
      const std::vector<Value> params = gen_.Params();
      std::vector<Row> expected;
      for (const Row& row : rows) {
        if (NaiveMatches(*p, row, params)) expected.push_back(row);
      }
      for (const auto* q : {&on_indexed, &on_twin}) {
        const Table& table = q == &on_indexed ? indexed_ : twin_;
        SCOPED_TRACE(table.name() + ": " + p->ToString());
        EXPECT_EQ(table.Select(*q, params).value(), expected);
        EXPECT_EQ(table.Count(*q, params).value(), expected.size());
        const bool found = table.SelectOne(*q, params, &one).value();
        ASSERT_EQ(found, !expected.empty());
        if (found) {
          EXPECT_EQ(one, expected.front());
        }
        for (size_t column : {kB, kD}) {
          double sum = 0;
          size_t n = 0;
          for (const Row& row : expected) {
            if (row[column].is_null()) continue;
            sum += row[column].AsDouble();
            ++n;
          }
          const Value got_sum =
              table.Aggregate(AggKind::kSum, column, *q, params).value();
          const Value got_avg =
              table.Aggregate(AggKind::kAvg, column, *q, params).value();
          if (n == 0) {
            EXPECT_TRUE(got_sum.is_null());
            EXPECT_TRUE(got_avg.is_null());
          } else {
            // Same rows in the same order: equal to the last bit.
            EXPECT_EQ(got_sum.AsDouble(), sum);
            EXPECT_EQ(got_avg.AsDouble(), sum / static_cast<double>(n));
          }
        }
      }
    }
  }

  std::vector<Row> Rows() const { return twin_.Select(True()).value(); }

  void ExpectSameStorage() {
    ASSERT_EQ(indexed_.Select(True()).value(), Rows());
    ASSERT_EQ(indexed_.RowCount(), twin_.RowCount());
  }

  Gen gen_;
  Table indexed_;
  Table twin_;
  std::vector<std::vector<size_t>> unique_;
  std::vector<Upserts> upserts_;
  size_t index_executions_ = 0;
};

TEST(PreparedQueryDifferentialTest, IndexedTableMatchesNaiveScan) {
  for (const Layout& layout : Layouts()) {
    size_t index_executions = 0;
    for (uint64_t seed = 1; seed <= 12; ++seed) {
      SCOPED_TRACE(std::string("layout ") + layout.name + " seed " +
                   std::to_string(seed));
      Differential d(seed, layout);
      d.Run(400);
      index_executions += d.index_executions();
    }
    if (!layout.indexes.empty()) {
      EXPECT_GT(index_executions, 100u) << layout.name;
    }
  }
}

}  // namespace
}  // namespace cwf::db
