// Stream-processing actors beyond the basic transforms: keyed joins,
// stream union, rate limiting, counter sources and relational-store
// adapters. These are the "stream optimized atomic actors" the paper's
// discussion wishes Kepler's off-the-shelf actors had been.

#ifndef CONFLUENCE_ACTORS_STREAM_OPS_H_
#define CONFLUENCE_ACTORS_STREAM_OPS_H_

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/actor.h"
#include "db/database.h"

namespace cwf {

/// \brief The concatenation of two record layouts: the first layout's
/// fields in order, then the second's fields the first lacks; on a name
/// clash the second side's value wins. Resolved once per pair of layouts,
/// so merging two records of an already-seen pair copies values by
/// position and compares no name.
class RecordConcat {
 public:
  /// \brief The merge of record `a` with the values `b` of layout
  /// `b_layout`.
  RecordPtr Build(const Record& a, const RecordLayoutPtr& b_layout,
                  const std::vector<Value>& b);

 private:
  void Resolve(const RecordLayoutPtr& a, const RecordLayoutPtr& b);

  // The pair last resolved (held, so their addresses stay theirs); null
  // and null to begin with, whose merge is the empty layout.
  RecordLayoutPtr a_;
  RecordLayoutPtr b_;
  RecordLayoutPtr merged_;
  std::vector<size_t> b_target_;  // merged_ position of each b_ field
};

/// \brief Symmetric keyed stream join.
///
/// Events from the `left` and `right` ports are matched on the values of
/// `key_fields`; every match emits one record merging both sides' fields
/// (left fields win name clashes). Each side buffers its most recent
/// `max_buffer_per_key` events per key, so memory stays bounded on
/// unbounded streams.
class KeyedJoinActor : public Actor {
 public:
  KeyedJoinActor(std::string name, std::vector<std::string> key_fields,
                 size_t max_buffer_per_key = 16);

  InputPort* left() const { return left_; }
  InputPort* right() const { return right_; }
  OutputPort* out() const { return out_; }

  /// \brief Ready when either side has input (a join never blocks on the
  /// slower stream).
  Result<bool> Prefire() override;
  Status Fire() override;

  /// \brief Matches emitted so far.
  uint64_t matches() const { return matches_; }

  /// A join emits the merge of both sides' layouts (left wins clashes);
  /// unknown when either side's layout is unresolved.
  TokenType OutputTokenType(const OutputPort* port,
                            const std::vector<TokenType>& inputs) const override;

 private:
  using Key = std::vector<Value>;

  Result<Key> ExtractKey(const Token& token,
                         std::vector<FieldPosition>* key_fields);
  Status Consume(InputPort* in, std::map<Key, std::deque<Token>>* own,
                 const std::map<Key, std::deque<Token>>& other,
                 bool own_is_left);

  // One set of key positions per side: each side's records share a layout.
  std::vector<FieldPosition> left_keys_;
  std::vector<FieldPosition> right_keys_;
  RecordConcat concat_;
  size_t max_buffer_per_key_;
  InputPort* left_;
  InputPort* right_;
  OutputPort* out_;
  std::map<Key, std::deque<Token>> left_buffer_;
  std::map<Key, std::deque<Token>> right_buffer_;
  uint64_t matches_ = 0;
};

/// \brief Merges any number of input channels into one output stream (fan
/// in; per-channel FIFO order preserved). Connect several producers to the
/// single `in` port.
class UnionActor : public Actor {
 public:
  explicit UnionActor(std::string name);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Fire() override;

  /// A union forwards tokens unchanged: joined input type.
  TokenType OutputTokenType(const OutputPort* port,
                            const std::vector<TokenType>& inputs) const override;

 private:
  InputPort* in_;
  OutputPort* out_;
};

/// \brief Drop-tail rate limiter: forwards at most `max_per_second` events
/// per one-second bucket of engine time and drops the rest (a simple load
/// shedder at a workflow edge).
class ThrottleActor : public Actor {
 public:
  ThrottleActor(std::string name, int64_t max_per_second);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Fire() override;

  uint64_t dropped() const { return dropped_; }

  /// A throttle forwards tokens unchanged: joined input type.
  TokenType OutputTokenType(const OutputPort* port,
                            const std::vector<TokenType>& inputs) const override;

 private:
  int64_t max_per_second_;
  InputPort* in_;
  OutputPort* out_;
  int64_t bucket_start_s_ = -1;
  int64_t in_bucket_ = 0;
  uint64_t dropped_ = 0;
};

/// \brief Holds every event for a fixed latency before forwarding it —
/// models an inter-node network link for single-process simulations of the
/// paper's distributed-SCWF direction (§5). Release is deadline-driven:
/// directors wake the actor via NextDeadline() even when no new input
/// arrives.
class DelayActor : public Actor {
 public:
  DelayActor(std::string name, Duration delay);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Result<bool> Prefire() override;
  Status Fire() override;
  Timestamp NextDeadline() const override;

  /// \brief Events currently in flight across the simulated link.
  size_t in_flight() const { return held_.size(); }

  /// A link forwards events unchanged: joined input type.
  TokenType OutputTokenType(const OutputPort* port,
                            const std::vector<TokenType>& inputs) const override;

 private:
  struct Held {
    Timestamp release;
    CWEvent event;  // provenance re-emitted intact via SendPreserved
  };

  Duration delay_;
  InputPort* in_;
  OutputPort* out_;
  std::deque<Held> held_;  // FIFO: releases are monotone in arrival order
};

/// \brief Finite source emitting the integers 0..count-1, `per_firing` per
/// firing — handy for SDF sub-workflows and examples; no external channel.
class CounterSource : public Actor {
 public:
  CounterSource(std::string name, int64_t count, int64_t per_firing = 1);

  OutputPort* out() const { return out_; }

  Result<bool> Prefire() override;
  Status Fire() override;
  int64_t ProductionRate(const OutputPort*) const override {
    return per_firing_;
  }

 private:
  int64_t count_;
  int64_t per_firing_;
  int64_t next_ = 0;
  OutputPort* out_;
};

/// \brief Writes each incoming record into a table, upserting on
/// `key_columns`. Record fields are matched to columns by name; missing
/// fields store NULL.
class DbUpsertActor : public Actor {
 public:
  DbUpsertActor(std::string name, db::Database* database,
                std::string table_name, std::vector<std::string> key_columns);

  InputPort* in() const { return in_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

  uint64_t rows_written() const { return rows_written_; }

 private:
  db::Database* database_;
  std::string table_name_;
  std::vector<std::string> key_columns_;
  db::Table* table_ = nullptr;
  /// The keyed upsert, prepared at Initialize.
  db::PreparedUpsert upsert_;
  /// One per table column, in column order.
  std::vector<FieldPosition> columns_;
  InputPort* in_;
  uint64_t rows_written_ = 0;
};

/// \brief Enriches each incoming record with columns looked up from a table
/// row whose `key_columns` equal the record's fields of the same names.
/// Unmatched records pass through unchanged (left outer join against the
/// store).
class DbLookupActor : public Actor {
 public:
  DbLookupActor(std::string name, db::Database* database,
                std::string table_name, std::vector<std::string> key_columns);

  InputPort* in() const { return in_; }
  OutputPort* out() const { return out_; }

  Status Initialize(ExecutionContext* ctx) override;
  Status Fire() override;

  uint64_t hits() const { return hits_; }

  /// Input layout plus the table's columns as optional fields (unmatched
  /// records pass through without them). A field named like a column may
  /// hold either's value: Fire lets the column overwrite it on a match.
  TokenType OutputTokenType(const OutputPort* port,
                            const std::vector<TokenType>& inputs) const override;

 private:
  db::Database* database_;
  std::string table_name_;
  std::vector<std::string> key_columns_;
  db::Table* table_ = nullptr;
  /// "key_columns[i] = ?i", prepared at Initialize; its parameters are
  /// the record's key fields, found through key_fields_.
  db::PreparedQuery lookup_;
  std::vector<FieldPosition> key_fields_;
  std::vector<Value> params_;
  db::Row row_;
  /// The table's column names, and the merge of a record with a row.
  RecordLayoutPtr columns_layout_;
  RecordConcat concat_;
  InputPort* in_;
  OutputPort* out_;
  uint64_t hits_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_ACTORS_STREAM_OPS_H_
