#include "actors/stream_ops.h"

namespace cwf {

// ---------------------------------------------------------------------------
// KeyedJoinActor
// ---------------------------------------------------------------------------

KeyedJoinActor::KeyedJoinActor(std::string name,
                               std::vector<std::string> key_fields,
                               size_t max_buffer_per_key)
    : Actor(std::move(name)),
      key_fields_(std::move(key_fields)),
      max_buffer_per_key_(max_buffer_per_key) {
  CWF_CHECK_MSG(!key_fields_.empty(), "join needs at least one key field");
  CWF_CHECK_MSG(max_buffer_per_key_ > 0, "join buffer must hold >= 1 event");
  left_ = AddInputPort("left");
  right_ = AddInputPort("right");
  out_ = AddOutputPort("out");
  RecordSchema keys;
  for (const std::string& field : key_fields_) {
    keys.Field(field, ScalarType::Any());
  }
  left_->set_required_schema(TokenType::Record(keys));
  right_->set_required_schema(TokenType::Record(std::move(keys)));
}

Result<bool> KeyedJoinActor::Prefire() {
  return left_->HasWindow() || right_->HasWindow();
}

Result<KeyedJoinActor::Key> KeyedJoinActor::ExtractKey(
    const Token& token) const {
  if (!token.is_record()) {
    return Status::InvalidArgument("join requires record tokens, got " +
                                   token.ToString());
  }
  Key key;
  key.reserve(key_fields_.size());
  for (const std::string& field : key_fields_) {
    auto value = token.AsRecord()->Get(field);
    if (!value.ok()) {
      return Status::InvalidArgument("join key field '" + field +
                                     "' missing from " + token.ToString());
    }
    key.push_back(std::move(value).value());
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
      CWF_ASSIGN_OR_RETURN(Key key, ExtractKey(e.token));
      // Probe the opposite buffer.
      auto it = other.find(key);
      if (it != other.end()) {
        for (const Token& partner : it->second) {
          auto merged = std::make_shared<Record>();
          const Token& left_tok = own_is_left ? e.token : partner;
          const Token& right_tok = own_is_left ? partner : e.token;
          // Right side first so that left fields win name clashes.
          for (const auto& [n, v] : right_tok.AsRecord()->fields()) {
            merged->Set(n, v);
          }
          for (const auto& [n, v] : left_tok.AsRecord()->fields()) {
            merged->Set(n, v);
          }
          Send(out_, Token(RecordPtr(std::move(merged))));
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
  return Status::OK();
}

Status DbUpsertActor::Fire() {
  std::optional<Window> w = in_->Get();
  if (!w.has_value()) {
    return Status::OK();
  }
  const db::Schema& schema = table_->schema();
  for (const CWEvent& e : w->events) {
    if (!e.token.is_record()) {
      return Status::InvalidArgument("DbUpsertActor needs record tokens");
    }
    db::Row row;
    row.reserve(schema.num_columns());
    for (const auto& column : schema.columns()) {
      row.push_back(e.token.AsRecord()->GetOr(column.name, Value()));
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
    const db::Schema& schema = table_->schema();
    auto merged = std::make_shared<Record>();
    merged->Reserve(rec.size() + schema.num_columns());
    for (const auto& [n, v] : rec.fields()) {
      merged->Set(n, v);
    }
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      merged->Set(schema.column(c).name, row_[c]);
    }
    Send(out_, Token(RecordPtr(std::move(merged))));
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
      if (enriched.IndexOf(col.name) >= 0) {
        continue;  // the record's own field wins the clash
      }
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
      enriched.Field(col.name, type, /*required=*/false);
    }
  }
  return TokenType::Record(std::move(enriched));
}

}  // namespace cwf
