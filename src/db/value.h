// Cell values for the embedded relational store.
//
// The store reuses the engine's Value type (core/record.h) so tuples move
// between stream records and relations without conversion.

#ifndef CONFLUENCE_DB_VALUE_H_
#define CONFLUENCE_DB_VALUE_H_

#include <vector>

#include "core/record.h"

namespace cwf::db {

using Value = ::cwf::Value;

/// \brief A materialized tuple (cells in schema column order).
using Row = std::vector<Value>;

}  // namespace cwf::db

#endif  // CONFLUENCE_DB_VALUE_H_
