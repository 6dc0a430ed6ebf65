#include "stream/trace.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/lock_registry.h"
#include "common/thread_annotations.h"

namespace cwf {
namespace {

std::string EscapeField(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == ';' || c == '=' || c == '\\' || c == '\n' || c == '\t') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

std::string UnescapeField(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
    }
    out.push_back(s[i]);
  }
  return out;
}

std::string SerializeValue(const Value& v) {
  if (v.is_int()) {
    return "i:" + std::to_string(v.AsInt());
  }
  if (v.is_double()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "d:%.17g", v.AsDouble());
    return buf;
  }
  if (v.is_bool()) {
    return v.AsBool() ? "b:1" : "b:0";
  }
  if (v.is_string()) {
    return "s:" + EscapeField(v.AsString());
  }
  return "n:";
}

// Parse all of `text` as a number; false on anything else (empty text,
// trailing characters, overflow).
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

Result<Value> ParseValue(std::string_view s) {
  if (s.size() < 2 || s[1] != ':') {
    return Status::InvalidArgument("malformed trace value '" +
                                   std::string(s) + "'");
  }
  const std::string_view body = s.substr(2);
  switch (s[0]) {
    case 'i': {
      int64_t v = 0;
      if (!ParseNumber(body, &v)) {
        break;
      }
      return Value(v);
    }
    case 'd': {
      double v = 0;
      if (!ParseNumber(body, &v)) {
        break;
      }
      return Value(v);
    }
    case 'b':
      return Value(body == "1");
    case 's':
      return Value(UnescapeField(body));
    case 'n':
      return Value();
    default:
      return Status::InvalidArgument("unknown trace value tag '" +
                                     std::string(s) + "'");
  }
  return Status::InvalidArgument("malformed trace number '" + std::string(s) +
                                 "'");
}

// The layout of the last record body parsed, on any thread. Consecutive
// bodies of one shape (one stream, across connections and ingest shards)
// yield records of one layout, so readers downstream keep one cached
// position per field, and no field name is copied after the first body.
class ParsedLayoutCache {
 public:
  RecordLayoutPtr Get() {
    ScopedLock lock(mutex_);
    return layout_;
  }
  void Set(RecordLayoutPtr layout) {
    ScopedLock lock(mutex_);
    layout_.swap(layout);
  }

 private:
  OrderedMutex mutex_{"ParsedLayoutCache::mutex"};
  RecordLayoutPtr layout_ CWF_GUARDED_BY(mutex_);
};

ParsedLayoutCache& LayoutCache() {
  static auto* cache = new ParsedLayoutCache();  // outlives parsing threads
  return *cache;
}

}  // namespace

std::string SerializeTokenBody(const Token& token) {
  std::string out;
  if (token.is_record()) {
    const Record& rec = *token.AsRecord();
    for (size_t i = 0; i < rec.size(); ++i) {
      if (i > 0) {
        out += ";";
      }
      out += EscapeField(rec.NameAt(i));
      out += "=";
      out += SerializeValue(rec.ValueAt(i));
    }
  } else if (!token.is_nil()) {
    Value v;
    if (token.is_int()) v = Value(token.AsInt());
    else if (token.is_double()) v = Value(token.AsDouble());
    else if (token.is_bool()) v = Value(token.AsBool());
    else v = Value(token.AsString());
    out = "value=" + SerializeValue(v);
  }
  return out;
}

Result<Token> ParseTokenBody(std::string_view body) {
  if (body.empty()) {
    return Token();
  }
  const RecordLayoutPtr last = LayoutCache().Get();
  // The first `n` names of `last`, as a layout of their own.
  const auto last_prefix = [&last](size_t n) {
    return RecordLayout::Make(std::vector<std::string>(
        last->names().begin(),
        last->names().begin() + static_cast<std::ptrdiff_t>(n)));
  };
  std::vector<Value> values;
  values.reserve(last != nullptr ? last->size() : 8);
  // Null while every name so far matches `last` in order; otherwise the
  // layout being built (a repeated name replaces the earlier value).
  RecordLayoutPtr built;
  for (size_t start = 0;;) {
    // One field: up to the next unescaped ';', split at its first
    // unescaped '='.
    size_t end = start;
    size_t eq = std::string_view::npos;
    bool escaped_name = false;
    for (; end < body.size() && body[end] != ';'; ++end) {
      if (body[end] == '\\' && end + 1 < body.size()) {
        escaped_name |= eq == std::string_view::npos;
        ++end;
      } else if (body[end] == '=' && eq == std::string_view::npos) {
        eq = end;
      }
    }
    const std::string_view field = body.substr(start, end - start);
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("malformed trace field: " +
                                     std::string(field));
    }
    CWF_ASSIGN_OR_RETURN(Value value,
                         ParseValue(body.substr(eq + 1, end - eq - 1)));
    const std::string_view raw_name = body.substr(start, eq - start);
    std::string unescaped;
    if (escaped_name) {
      unescaped = UnescapeField(raw_name);
    }
    const std::string_view name = escaped_name ? unescaped : raw_name;
    const size_t k = values.size();
    if (built == nullptr && last != nullptr && k < last->size() &&
        last->name(k) == name) {
      values.push_back(std::move(value));
    } else {
      if (built == nullptr && k > 0) {
        built = last_prefix(k);
      }
      const int index = built != nullptr ? built->IndexOf(name) : -1;
      if (index >= 0) {
        values[static_cast<size_t>(index)] = std::move(value);
      } else {
        RecordLayout::Extend(&built, std::string(name));
        values.push_back(std::move(value));
      }
    }
    if (end == body.size()) {
      break;
    }
    start = end + 1;
  }
  if (built == nullptr && values.size() != last->size()) {
    built = last_prefix(values.size());
  }
  if (built == nullptr) {
    return Token(std::make_shared<const Record>(last, std::move(values)));
  }
  LayoutCache().Set(built);
  return Token(std::make_shared<const Record>(std::move(built),
                                              std::move(values)));
}

void Trace::Sort() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const TraceEntry& a, const TraceEntry& b) {
                     return a.arrival < b.arrival;
                   });
}

Timestamp Trace::EndTime() const {
  return entries_.empty() ? Timestamp(0) : entries_.back().arrival;
}

size_t Trace::CountInRange(Timestamp from, Timestamp to) const {
  size_t count = 0;
  for (const TraceEntry& e : entries_) {
    if (e.arrival >= from && e.arrival < to) {
      ++count;
    }
  }
  return count;
}

Status Trace::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  for (const TraceEntry& e : entries_) {
    out << e.arrival.micros() << "\t" << SerializeTokenBody(e.token) << "\n";
  }
  return out.good() ? Status::OK()
                    : Status::Internal("write to '" + path + "' failed");
}

Result<Trace> Trace::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open trace file '" + path + "'");
  }
  Trace trace;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::InvalidArgument("malformed trace line: " + line);
    }
    int64_t arrival_us = 0;
    if (!ParseNumber(std::string_view(line).substr(0, tab), &arrival_us)) {
      return Status::InvalidArgument("malformed trace arrival: " + line);
    }
    const Timestamp arrival(arrival_us);
    auto token = ParseTokenBody(std::string_view(line).substr(tab + 1));
    if (!token.ok()) {
      return token.status();
    }
    trace.Add(arrival, std::move(token).value());
  }
  return trace;
}

}  // namespace cwf
