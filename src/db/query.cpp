#include "db/query.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace cwf::db {
namespace {

const char* CmpOpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq:
      return "=";
    case CmpOp::kNe:
      return "!=";
    case CmpOp::kLt:
      return "<";
    case CmpOp::kLe:
      return "<=";
    case CmpOp::kGt:
      return ">";
    case CmpOp::kGe:
      return ">=";
  }
  return "?";
}

/// Order() result when either side is null or NaN.
constexpr int kUnordered = 2;

/// Exact three-way comparison of an int with a (non-NaN) double.
int CompareIntDouble(int64_t a, double b) {
  constexpr double kTwo63 = 9223372036854775808.0;
  if (b >= kTwo63) {
    return -1;
  }
  if (b < -kTwo63) {
    return 1;
  }
  const double whole = std::trunc(b);
  const auto whole_int = static_cast<int64_t>(whole);
  if (a != whole_int) {
    return a < whole_int ? -1 : 1;
  }
  // a == trunc(b): the fractional part decides.
  if (b > whole) return -1;
  if (b < whole) return 1;
  return 0;
}

template <typename T>
int ThreeWay(T a, T b) {
  if (a < b) return -1;
  if (b < a) return 1;
  return 0;
}

/// -1/0/1, or kUnordered.
int Order(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    return kUnordered;
  }
  if (a.is_int()) {
    if (b.is_int()) {
      return ThreeWay(a.AsInt(), b.AsInt());
    }
    if (b.is_double()) {
      const double y = b.AsDouble();
      return std::isnan(y) ? kUnordered : CompareIntDouble(a.AsInt(), y);
    }
  } else if (a.is_double()) {
    const double x = a.AsDouble();
    if (b.is_int()) {
      return std::isnan(x) ? kUnordered : -CompareIntDouble(b.AsInt(), x);
    }
    if (b.is_double()) {
      const double y = b.AsDouble();
      return std::isnan(x) || std::isnan(y) ? kUnordered : ThreeWay(x, y);
    }
  }
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

/// Node and constant counts of a tree, to size a Filter's arrays once.
void CountNodes(const Predicate& p, size_t* nodes, size_t* constants) {
  ++*nodes;
  if (p.kind() == Predicate::Kind::kCmp && p.param() < 0) {
    ++*constants;
  }
  for (const PredicatePtr& child : p.children()) {
    if (child != nullptr) {
      CountNodes(*child, nodes, constants);
    }
  }
}

}  // namespace

bool Compare(const Value& cell, CmpOp op, const Value& operand) {
  const int c = Order(cell, operand);
  if (c == kUnordered) {
    return false;  // SQL-style: comparisons with NULL (or NaN) never match
  }
  switch (op) {
    case CmpOp::kEq:
      return c == 0;
    case CmpOp::kNe:
      return c != 0;
    case CmpOp::kLt:
      return c < 0;
    case CmpOp::kLe:
      return c <= 0;
    case CmpOp::kGt:
      return c > 0;
    case CmpOp::kGe:
      return c >= 0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Predicate
// ---------------------------------------------------------------------------

Predicate::Predicate(std::string column, CmpOp op, Value value, int64_t param)
    : kind_(Kind::kCmp),
      column_(std::move(column)),
      op_(op),
      value_(std::move(value)),
      param_(param) {}

Predicate::Predicate(Kind kind, std::vector<PredicatePtr> children)
    : kind_(kind), children_(std::move(children)) {}

Predicate::~Predicate() = default;

Status Predicate::Bind(const Schema& schema) {
  const Predicate* self = this;
  CWF_ASSIGN_OR_RETURN(Filter filter, Filter::Compile({&self, 1}, schema));
  if (filter.param_count() > 0) {
    return Status::InvalidArgument(
        "predicate " + ToString() +
        " has parameter slots; prepare it on a table instead");
  }
  bound_ = std::make_unique<Filter>(std::move(filter));
  return Status::OK();
}

bool Predicate::Matches(const Row& row) const {
  CWF_CHECK_MSG(bound_ != nullptr, "predicate used before Bind()");
  return bound_->Matches(row, {});
}

std::string Predicate::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCmp:
      return column_ + " " + CmpOpName(op_) + " " +
             (param_ >= 0 ? "?" + std::to_string(param_) : value_.ToString());
    case Kind::kNot:
      return "NOT " + children_[0]->ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::ostringstream oss;
      oss << "(";
      for (size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) {
          oss << (kind_ == Kind::kAnd ? " AND " : " OR ");
        }
        oss << children_[i]->ToString();
      }
      oss << ")";
      return oss.str();
    }
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

Result<Filter> Filter::Compile(std::span<const Predicate* const> conjuncts,
                               const Schema& schema) {
  Filter filter;
  size_t live = 0;
  size_t nodes = 0;
  size_t constants = 0;
  for (const Predicate* p : conjuncts) {
    if (p == nullptr) {
      return Status::InvalidArgument("null predicate");
    }
    if (p->kind() != Predicate::Kind::kTrue) {
      ++live;
      CountNodes(*p, &nodes, &constants);
    }
  }
  if (live > 1) {
    filter.nodes_.reserve(nodes + 1);
    filter.nodes_.push_back(Node{Predicate::Kind::kAnd});
  } else {
    filter.nodes_.reserve(nodes);
  }
  filter.constants_.reserve(constants);
  for (const Predicate* p : conjuncts) {
    if (p->kind() != Predicate::Kind::kTrue) {
      CWF_RETURN_NOT_OK(filter.Emit(*p, schema));
    }
  }
  if (live > 1) {
    filter.nodes_[0].end = static_cast<uint32_t>(filter.nodes_.size());
  }
  return filter;
}

Status Filter::Emit(const Predicate& predicate, const Schema& schema) {
  const size_t i = nodes_.size();
  nodes_.push_back(Node{predicate.kind()});
  if (predicate.kind() == Predicate::Kind::kCmp) {
    CWF_ASSIGN_OR_RETURN(size_t column, schema.ColumnIndex(predicate.column()));
    Node& node = nodes_[i];
    node.op = predicate.op();
    node.column = static_cast<uint32_t>(column);
    if (predicate.param() >= 0) {
      node.is_param = true;
      node.operand = static_cast<uint32_t>(predicate.param());
      param_count_ =
          std::max(param_count_, static_cast<size_t>(predicate.param()) + 1);
    } else {
      node.operand = static_cast<uint32_t>(constants_.size());
      constants_.push_back(predicate.value());
    }
  }
  for (const PredicatePtr& child : predicate.children()) {
    if (child == nullptr) {
      return Status::InvalidArgument("null predicate");
    }
    CWF_RETURN_NOT_OK(Emit(*child, schema));
  }
  nodes_[i].end = static_cast<uint32_t>(nodes_.size());
  return Status::OK();
}

bool Filter::Eval(size_t i, const Row& row,
                  std::span<const Value> params) const {
  const Node& node = nodes_[i];
  switch (node.kind) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kCmp:
      return Compare(row[node.column], node.op,
                     node.is_param ? params[node.operand]
                                   : constants_[node.operand]);
    case Predicate::Kind::kAnd:
      for (size_t c = i + 1; c < node.end; c = nodes_[c].end) {
        if (!Eval(c, row, params)) {
          return false;
        }
      }
      return true;
    case Predicate::Kind::kOr:
      for (size_t c = i + 1; c < node.end; c = nodes_[c].end) {
        if (Eval(c, row, params)) {
          return true;
        }
      }
      return false;
    case Predicate::Kind::kNot:
      return !Eval(i + 1, row, params);
  }
  return false;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

PredicatePtr Cmp(std::string column, CmpOp op, Value value) {
  return std::make_shared<Predicate>(std::move(column), op, std::move(value),
                                     -1);
}

PredicatePtr Cmp(std::string column, CmpOp op, Param param) {
  return std::make_shared<Predicate>(std::move(column), op, Value(),
                                     static_cast<int64_t>(param.slot));
}

PredicatePtr Eq(std::string column, Value value) {
  return Cmp(std::move(column), CmpOp::kEq, std::move(value));
}
PredicatePtr Ne(std::string column, Value value) {
  return Cmp(std::move(column), CmpOp::kNe, std::move(value));
}
PredicatePtr Lt(std::string column, Value value) {
  return Cmp(std::move(column), CmpOp::kLt, std::move(value));
}
PredicatePtr Le(std::string column, Value value) {
  return Cmp(std::move(column), CmpOp::kLe, std::move(value));
}
PredicatePtr Gt(std::string column, Value value) {
  return Cmp(std::move(column), CmpOp::kGt, std::move(value));
}
PredicatePtr Ge(std::string column, Value value) {
  return Cmp(std::move(column), CmpOp::kGe, std::move(value));
}
PredicatePtr Eq(std::string column, Param param) {
  return Cmp(std::move(column), CmpOp::kEq, param);
}
PredicatePtr Ne(std::string column, Param param) {
  return Cmp(std::move(column), CmpOp::kNe, param);
}
PredicatePtr Lt(std::string column, Param param) {
  return Cmp(std::move(column), CmpOp::kLt, param);
}
PredicatePtr Le(std::string column, Param param) {
  return Cmp(std::move(column), CmpOp::kLe, param);
}
PredicatePtr Gt(std::string column, Param param) {
  return Cmp(std::move(column), CmpOp::kGt, param);
}
PredicatePtr Ge(std::string column, Param param) {
  return Cmp(std::move(column), CmpOp::kGe, param);
}

PredicatePtr Between(std::string column, Value lo, Value hi) {
  // Take an explicit copy: evaluation order of the two arguments below is
  // unspecified, so moving `column` into one of them directly could leave
  // the other with an empty name.
  std::string column_copy = column;
  return And(Ge(std::move(column_copy), std::move(lo)),
             Le(std::move(column), std::move(hi)));
}

PredicatePtr And(std::vector<PredicatePtr> children) {
  return std::make_shared<Predicate>(Predicate::Kind::kAnd,
                                     std::move(children));
}
PredicatePtr And(PredicatePtr a, PredicatePtr b) {
  return And(std::vector<PredicatePtr>{std::move(a), std::move(b)});
}
PredicatePtr Or(std::vector<PredicatePtr> children) {
  return std::make_shared<Predicate>(Predicate::Kind::kOr,
                                     std::move(children));
}
PredicatePtr Or(PredicatePtr a, PredicatePtr b) {
  return Or(std::vector<PredicatePtr>{std::move(a), std::move(b)});
}
PredicatePtr Not(PredicatePtr child) {
  std::vector<PredicatePtr> children{std::move(child)};
  return std::make_shared<Predicate>(Predicate::Kind::kNot,
                                     std::move(children));
}

PredicatePtr True() {
  return std::make_shared<Predicate>(Predicate::Kind::kTrue,
                                     std::vector<PredicatePtr>{});
}

}  // namespace cwf::db
