#include "actors/stream_ops.h"

namespace cwf {

// ---------------------------------------------------------------------------
// RecordConcat
// ---------------------------------------------------------------------------

RecordPtr RecordConcat::Build(const Record& a, const RecordLayoutPtr& b_layout,
                              const std::vector<Value>& b) {
  if (a.layout() != a_ || b_layout != b_) {
    Resolve(a.layout(), b_layout);
  }
  const size_t size = merged_ != nullptr ? merged_->size() : 0;
  std::vector<Value> values;
  values.reserve(size);
  values.assign(a.values().begin(), a.values().end());
  values.resize(size);
  for (size_t j = 0; j < b.size(); ++j) {
    values[b_target_[j]] = b[j];
  }
  return std::make_shared<const Record>(merged_, std::move(values));
}

void RecordConcat::Resolve(const RecordLayoutPtr& a,
                           const RecordLayoutPtr& b) {
  std::vector<std::string> names;
  if (a != nullptr) {
    names = a->names();
  }
  b_target_.clear();
  const size_t b_size = b != nullptr ? b->size() : 0;
  for (size_t j = 0; j < b_size; ++j) {
    const int clash = a != nullptr ? a->IndexOf(b->name(j)) : -1;
    if (clash >= 0) {
      b_target_.push_back(static_cast<size_t>(clash));
    } else {
      b_target_.push_back(names.size());
      names.push_back(b->name(j));
    }
  }
  merged_ = names.empty() ? nullptr : RecordLayout::Make(std::move(names));
  a_ = a;
  b_ = b;
}

// ---------------------------------------------------------------------------
// KeyedJoinActor
// ---------------------------------------------------------------------------

KeyedJoinActor::KeyedJoinActor(std::string name,
                               std::vector<std::string> key_fields,
                               size_t max_buffer_per_key)
    : Actor(std::move(name)), max_buffer_per_key_(max_buffer_per_key) {
  CWF_CHECK_MSG(!key_fields.empty(), "join needs at least one key field");
  CWF_CHECK_MSG(max_buffer_per_key_ > 0, "join buffer must hold >= 1 event");
  left_ = AddInputPort("left");
  right_ = AddInputPort("right");
  out_ = AddOutputPort("out");
  RecordSchema keys;
  for (const std::string& field : key_fields) {
    keys.Field(field, ScalarType::Any());
    left_keys_.emplace_back(field);
    right_keys_.emplace_back(field);
  }
  left_->set_required_schema(TokenType::Record(keys));
  right_->set_required_schema(TokenType::Record(std::move(keys)));
}

Result<bool> KeyedJoinActor::Prefire() {
  return left_->HasWindow() || right_->HasWindow();
}

Result<KeyedJoinActor::Key> KeyedJoinActor::ExtractKey(
    const Token& token, std::vector<FieldPosition>* key_fields) {
  if (!token.is_record()) {
    return Status::InvalidArgument("join requires record tokens, got " +
                                   token.ToString());
  }
  Key key;
  key.reserve(key_fields->size());
  for (FieldPosition& field : *key_fields) {
    const Value* value = field.Find(*token.AsRecord());
    if (value == nullptr) {
      return Status::InvalidArgument("join key field '" + field.name() +
                                     "' missing from " + token.ToString());
    }
    key.push_back(*value);
  }
  return key;
}

Status KeyedJoinActor::Consume(
    InputPort* in, std::map<Key, std::deque<Token>>* own,
    const std::map<Key, std::deque<Token>>& other, bool own_is_left) {
  while (in->HasWindow()) {
    std::optional<Window> w = in->Get();
    if (!w.has_value()) {
      break;
    }
    for (const CWEvent& e : w->events) {
      CWF_ASSIGN_OR_RETURN(
          Key key,
          ExtractKey(e.token, own_is_left ? &left_keys_ : &right_keys_));
      // Probe the opposite buffer.
      auto it = other.find(key);
      if (it != other.end()) {
        for (const Token& partner : it->second) {
          const Record& left = *(own_is_left ? e.token : partner).AsRecord();
          const Record& right =
              *(own_is_left ? partner : e.token).AsRecord();
          // Right side first so that left fields win name clashes.
          Send(out_, Token(concat_.Build(right, left.layout(), left.values())));
          ++matches_;
        }
      }
      // Remember for future partners, bounded per key.
      auto& bucket = (*own)[key];
      bucket.push_back(e.token);
      if (bucket.size() > max_buffer_per_key_) {
        bucket.pop_front();
      }
    }
  }
  return Status::OK();
}

Status KeyedJoinActor::Fire() {
  CWF_RETURN_NOT_OK(Consume(left_, &left_buffer_, right_buffer_, true));
  CWF_RETURN_NOT_OK(Consume(right_, &right_buffer_, left_buffer_, false));
  return Status::OK();
}

TokenType KeyedJoinActor::OutputTokenType(
    const OutputPort* port, const std::vector<TokenType>& inputs) const {
  if (!port->schema().is_unknown()) {
    return port->schema();
  }
  if (inputs.size() < 2 || !inputs[0].allows_record() ||
      !inputs[1].allows_record()) {
    return TokenType::Unknown();
  }
  const RecordSchemaPtr left = inputs[0].record_schema();
  const RecordSchemaPtr right = inputs[1].record_schema();
  if (left == nullptr || right == nullptr) {
    return TokenType::Unknown();
  }
  RecordSchema merged;
  for (const FieldSpec& f : left->fields()) {
    merged.Field(f.name, f.type, f.required);
  }
  for (const FieldSpec& f : right->fields()) {
    if (merged.IndexOf(f.name) < 0) {
      merged.Field(f.name, f.type, f.required);
    }
  }
  return TokenType::Record(std::move(merged));
}

// ---------------------------------------------------------------------------
// UnionActor
// ---------------------------------------------------------------------------

UnionActor::UnionActor(std::string name) : Actor(std::move(name)) {
  in_ = AddInputPort("in");
  out_ = AddOutputPort("out");
}

Status UnionActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  for (const CWEvent& e : w->events) {
    Send(out_, e.token);
  }
  return Status::OK();
}

TokenType UnionActor::OutputTokenType(
    const OutputPort* port, const std::vector<TokenType>& inputs) const {
  return IdentityTokenType(port, inputs);
}

// ---------------------------------------------------------------------------
// ThrottleActor
// ---------------------------------------------------------------------------

ThrottleActor::ThrottleActor(std::string name, int64_t max_per_second)
    : Actor(std::move(name)), max_per_second_(max_per_second) {
  CWF_CHECK_MSG(max_per_second_ > 0, "throttle rate must be positive");
  in_ = AddInputPort("in");
  out_ = AddOutputPort("out");
}

Status ThrottleActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  const int64_t now_s = ctx_->clock->Now().micros() / 1000000;
  for (const CWEvent& e : w->events) {
    if (now_s != bucket_start_s_) {
      bucket_start_s_ = now_s;
      in_bucket_ = 0;
    }
    if (in_bucket_ < max_per_second_) {
      ++in_bucket_;
      Send(out_, e.token);
    } else {
      ++dropped_;
    }
  }
  return Status::OK();
}

TokenType ThrottleActor::OutputTokenType(
    const OutputPort* port, const std::vector<TokenType>& inputs) const {
  return IdentityTokenType(port, inputs);
}

// ---------------------------------------------------------------------------
// DelayActor
// ---------------------------------------------------------------------------

DelayActor::DelayActor(std::string name, Duration delay)
    : Actor(std::move(name)), delay_(delay) {
  CWF_CHECK_MSG(delay_ >= 0, "delay must be non-negative");
  in_ = AddInputPort("in");
  out_ = AddOutputPort("out");
}

Result<bool> DelayActor::Prefire() {
  if (in_->HasWindow()) {
    return true;
  }
  return !held_.empty() && held_.front().release <= ctx_->clock->Now();
}

Status DelayActor::Fire() {
  const Timestamp now = ctx_->clock->Now();
  while (in_->HasWindow()) {
    std::optional<Window> w = in_->Get();
    if (!w.has_value()) {
      break;
    }
    for (const CWEvent& e : w->events) {
      held_.push_back({now + delay_, e});
    }
  }
  while (!held_.empty() && held_.front().release <= now) {
    SendPreserved(out_, held_.front().event);
    held_.pop_front();
  }
  return Status::OK();
}

Timestamp DelayActor::NextDeadline() const {
  return held_.empty() ? Timestamp::Max() : held_.front().release;
}

TokenType DelayActor::OutputTokenType(
    const OutputPort* port, const std::vector<TokenType>& inputs) const {
  return IdentityTokenType(port, inputs);
}

// ---------------------------------------------------------------------------
// CounterSource
// ---------------------------------------------------------------------------

CounterSource::CounterSource(std::string name, int64_t count,
                             int64_t per_firing)
    : Actor(std::move(name)), count_(count), per_firing_(per_firing) {
  CWF_CHECK_MSG(per_firing_ > 0, "per_firing must be positive");
  out_ = AddOutputPort("out");
  out_->set_schema(TokenType::Int());
}

Result<bool> CounterSource::Prefire() { return next_ < count_; }

Status CounterSource::Fire() {
  for (int64_t i = 0; i < per_firing_ && next_ < count_; ++i) {
    Send(out_, Token(next_++));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DbUpsertActor / DbLookupActor
// ---------------------------------------------------------------------------

DbUpsertActor::DbUpsertActor(std::string name, db::Database* database,
                             std::string table_name,
                             std::vector<std::string> key_columns)
    : Actor(std::move(name)),
      database_(database),
      table_name_(std::move(table_name)),
      key_columns_(std::move(key_columns)) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in");
}

Status DbUpsertActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(table_, database_->GetTable(table_name_));
  CWF_ASSIGN_OR_RETURN(upsert_, table_->PrepareUpsert(key_columns_));
  columns_.clear();
  for (const db::Column& column : table_->schema().columns()) {
    columns_.emplace_back(column.name);
  }
  return Status::OK();
}

Status DbUpsertActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  for (const CWEvent& e : w->events) {
    if (!e.token.is_record()) {
      return Status::InvalidArgument("DbUpsertActor needs record tokens");
    }
    db::Row row;
    row.reserve(columns_.size());
    for (FieldPosition& column : columns_) {
      row.push_back(column.GetOr(*e.token.AsRecord(), Value()));
    }
    auto upserted = table_->Upsert(upsert_, std::move(row));
    if (!upserted.ok()) {
      return upserted.status();
    }
    ++rows_written_;
  }
  return Status::OK();
}

DbLookupActor::DbLookupActor(std::string name, db::Database* database,
                             std::string table_name,
                             std::vector<std::string> key_columns)
    : Actor(std::move(name)),
      database_(database),
      table_name_(std::move(table_name)),
      key_columns_(std::move(key_columns)) {
  CWF_CHECK(database_ != nullptr);
  in_ = AddInputPort("in");
  out_ = AddOutputPort("out");
}

Status DbLookupActor::Initialize(ExecutionContext* ctx) {
  CWF_RETURN_NOT_OK(Actor::Initialize(ctx));
  CWF_ASSIGN_OR_RETURN(table_, database_->GetTable(table_name_));
  std::vector<db::PredicatePtr> eqs;
  key_fields_.clear();
  for (size_t i = 0; i < key_columns_.size(); ++i) {
    eqs.push_back(
        db::Eq(key_columns_[i], db::Param(static_cast<uint32_t>(i))));
    key_fields_.emplace_back(key_columns_[i]);
  }
  CWF_ASSIGN_OR_RETURN(lookup_, table_->Prepare(db::And(std::move(eqs))));
  params_.assign(key_columns_.size(), Value());
  std::vector<std::string> columns;
  for (const db::Column& column : table_->schema().columns()) {
    columns.push_back(column.name);
  }
  columns_layout_ = RecordLayout::Make(std::move(columns));
  return Status::OK();
}

Status DbLookupActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  for (const CWEvent& e : w->events) {
    if (!e.token.is_record()) {
      return Status::InvalidArgument("DbLookupActor needs record tokens");
    }
    const Record& rec = *e.token.AsRecord();
    for (size_t i = 0; i < key_fields_.size(); ++i) {
      const Value* value = key_fields_[i].Find(rec);
      if (value == nullptr) {
        return Status::InvalidArgument("lookup key field '" +
                                       key_fields_[i].name() +
                                       "' missing from record");
      }
      params_[i] = *value;
    }
    auto found = table_->SelectOne(lookup_, params_, &row_);
    if (!found.ok()) {
      return found.status();
    }
    if (!found.value()) {
      Send(out_, e.token);  // pass through unmatched
      continue;
    }
    // The record's fields, then the row's; a column overwrites a field of
    // the same name.
    Send(out_, Token(concat_.Build(rec, columns_layout_, row_)));
    ++hits_;
  }
  return Status::OK();
}

TokenType DbLookupActor::OutputTokenType(
    const OutputPort* port, const std::vector<TokenType>& inputs) const {
  if (!port->schema().is_unknown()) {
    return port->schema();
  }
  if (inputs.empty() || !inputs[0].allows_record()) {
    return TokenType::Unknown();
  }
  const RecordSchemaPtr in_layout = inputs[0].record_schema();
  if (in_layout == nullptr) {
    return inputs[0];
  }
  RecordSchema enriched = *in_layout;
  auto table = database_->GetTable(table_name_);
  if (table.ok()) {
    const db::Schema& schema = (*table)->schema();
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const db::Column& col = schema.column(c);
      ScalarType type = ScalarType::Null();  // columns are nullable
      switch (col.type) {
        case db::ColumnType::kInt64:
          type = type.Union(ScalarType::Int());
          break;
        case db::ColumnType::kDouble:
          type = type.Union(ScalarType::Double());
          break;
        case db::ColumnType::kBool:
          type = type.Union(ScalarType::Bool());
          break;
        case db::ColumnType::kString:
          type = type.Union(ScalarType::Str());
          break;
      }
      if (const FieldSpec* field = enriched.Find(col.name)) {
        // Name clash: a match overwrites the field with the column's value
        // and an unmatched record keeps its own, so the field holds either.
        const bool required = field->required;
        enriched.Field(col.name, field->type.Union(type), required);
      } else {
        enriched.Field(col.name, type, /*required=*/false);
      }
    }
  }
  return TokenType::Record(std::move(enriched));
}

}  // namespace cwf
