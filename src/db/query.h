// Predicate combinators and aggregates for the embedded store.
//
// The paper's Linear Road workflow issues SQL against an external RDBMS for
// segment statistics and accident proximity. This module provides the
// equivalent expressiveness as a typed combinator API (no SQL string
// parsing): comparison predicates over named columns composed with AND/OR/
// NOT, plus the aggregate kinds the benchmark needs.
//
// A predicate is a description that preparing only reads, so one tree may
// serve many statements and threads; nothing evaluates the tree itself.
// Table::Prepare (db/table.h) compiles it once against a table into
// a PreparedQuery, whose residual part is a Filter: columns resolved to
// indexes and the tree flattened into one array. A comparison's constant
// may be a parameter slot (Param(i)) instead, supplied per execution, so an
// actor prepares its statement at Initialize and runs it per tuple without
// building a tree.
//
// Comparison semantics (shared by filters and index probes, so whether an
// index exists never changes a result):
//  - a null cell, a null operand or a NaN on either side matches nothing,
//    not even !=;
//  - ints and doubles compare by exact numeric value (no rounding through
//    double: 2^53+1 != 2^53);
//  - other values compare by Value's total order (type tag first), so a
//    comparison across unrelated types is never equal.

#ifndef CONFLUENCE_DB_QUERY_H_
#define CONFLUENCE_DB_QUERY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/schema.h"

namespace cwf::db {

/// \brief Comparison operators.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// \brief Whether `cell <op> operand` holds under the rules above.
bool Compare(const Value& cell, CmpOp op, const Value& operand);

/// \brief A parameter slot: the `slot`-th value of the span a prepared
/// query is executed with.
struct Param {
  explicit Param(uint32_t s) : slot(s) {}
  uint32_t slot;
};

class Filter;

/// \brief A boolean expression over a row. Build with the factory functions
/// below and prepare it on a table (Table::Prepare).
class Predicate {
 public:
  enum class Kind { kTrue, kCmp, kAnd, kOr, kNot };

  /// A comparison node; `param` is a slot, or -1 when `value` is the
  /// constant operand.
  Predicate(std::string column, CmpOp op, Value value, int64_t param);
  /// A TRUE / AND / OR / NOT node.
  Predicate(Kind kind, std::vector<std::shared_ptr<Predicate>> children);
  ~Predicate();

  Kind kind() const { return kind_; }
  /// kCmp: the column, operator, and operand (constant or slot).
  const std::string& column() const { return column_; }
  CmpOp op() const { return op_; }
  const Value& value() const { return value_; }
  int64_t param() const { return param_; }
  const std::vector<std::shared_ptr<Predicate>>& children() const {
    return children_;
  }

  /// \brief Compile against `schema` for Matches(). Fails on an unknown
  /// column or a parameter slot (parameters need a prepared query). Stores
  /// the compiled form in this node: do not Bind a tree other threads use.
  Status Bind(const Schema& schema);

  /// \brief Evaluate against a row (after Bind).
  bool Matches(const Row& row) const;

  std::string ToString() const;

 private:
  Kind kind_;
  std::string column_;
  CmpOp op_ = CmpOp::kEq;
  Value value_;
  int64_t param_ = -1;
  std::vector<std::shared_ptr<Predicate>> children_;
  std::unique_ptr<Filter> bound_;
};

using PredicatePtr = std::shared_ptr<Predicate>;

/// \brief A conjunction of predicates compiled against one schema: column
/// names resolved to indexes and every tree flattened, in prefix order, into
/// one node array. Matches() walks that array; it makes no virtual call and
/// allocates nothing. Immutable once compiled, so concurrent readers may
/// share one.
class Filter {
 public:
  /// \brief The empty conjunction: matches every row.
  Filter() = default;

  static Result<Filter> Compile(std::span<const Predicate* const> conjuncts,
                                const Schema& schema);

  /// \brief Whether `row` satisfies every conjunct; parameter slots read
  /// `params` (at least param_count() values).
  bool Matches(const Row& row, std::span<const Value> params) const {
    if (nodes_.empty()) {
      return true;
    }
    return Eval(0, row, params);
  }

  /// \brief One more than the highest parameter slot used (0 if none).
  size_t param_count() const { return param_count_; }

 private:
  struct Node {
    Predicate::Kind kind;
    CmpOp op = CmpOp::kEq;
    bool is_param = false;
    /// kCmp: the column compared.
    uint32_t column = 0;
    /// kCmp: the parameter slot, or the position in constants_.
    uint32_t operand = 0;
    /// One past this node's last descendant: its next sibling.
    uint32_t end = 0;
  };

  Status Emit(const Predicate& predicate, const Schema& schema);
  bool Eval(size_t i, const Row& row, std::span<const Value> params) const;

  std::vector<Node> nodes_;
  std::vector<Value> constants_;
  size_t param_count_ = 0;
};

/// \brief column <op> constant.
PredicatePtr Cmp(std::string column, CmpOp op, Value value);
/// \brief column <op> parameter slot.
PredicatePtr Cmp(std::string column, CmpOp op, Param param);

/// \brief Shorthands (constant or parameter operand).
PredicatePtr Eq(std::string column, Value value);
PredicatePtr Ne(std::string column, Value value);
PredicatePtr Lt(std::string column, Value value);
PredicatePtr Le(std::string column, Value value);
PredicatePtr Gt(std::string column, Value value);
PredicatePtr Ge(std::string column, Value value);
PredicatePtr Eq(std::string column, Param param);
PredicatePtr Ne(std::string column, Param param);
PredicatePtr Lt(std::string column, Param param);
PredicatePtr Le(std::string column, Param param);
PredicatePtr Gt(std::string column, Param param);
PredicatePtr Ge(std::string column, Param param);

/// \brief column BETWEEN lo AND hi (inclusive).
PredicatePtr Between(std::string column, Value lo, Value hi);

/// \brief Conjunction / disjunction / negation.
PredicatePtr And(std::vector<PredicatePtr> children);
PredicatePtr And(PredicatePtr a, PredicatePtr b);
PredicatePtr Or(std::vector<PredicatePtr> children);
PredicatePtr Or(PredicatePtr a, PredicatePtr b);
PredicatePtr Not(PredicatePtr child);

/// \brief Always-true predicate (full scan).
PredicatePtr True();

/// \brief Aggregate kinds supported by Table::Aggregate. SUM/AVG/MIN/MAX
/// skip null cells (AVG divides by the non-null count).
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

}  // namespace cwf::db

#endif  // CONFLUENCE_DB_QUERY_H_
