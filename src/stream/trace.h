// Recorded streams: (arrival time, token) sequences.
//
// Traces make workloads replayable: the Linear Road generator emits a trace
// once, and every scheduler under comparison consumes the identical tuple
// sequence. Traces serialize to a simple TSV format for offline inspection.

#ifndef CONFLUENCE_STREAM_TRACE_H_
#define CONFLUENCE_STREAM_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/token.h"

namespace cwf {

/// \brief One externally arriving tuple.
struct TraceEntry {
  Timestamp arrival;
  Token token;
};

/// \brief Serialize a token as the trace body format
/// ("field=tag:value;field=tag:value"); scalars become a single `value=`
/// field. Shared by trace files and the TCP line protocol.
std::string SerializeTokenBody(const Token& token);

/// \brief Parse a SerializeTokenBody() string back into a record token.
/// An empty body parses to the nil token. A number must fill its whole
/// field and fit its type, or the body is InvalidArgument. A repeated field
/// name keeps its first position and its last value. Consecutive bodies
/// with the same field names on one thread share one record layout.
Result<Token> ParseTokenBody(std::string_view body);

/// \brief An ordered, replayable stream recording.
class Trace {
 public:
  Trace() = default;

  /// \brief Append an entry (call Sort() afterwards if arrivals are not
  /// appended in order).
  void Add(Timestamp arrival, Token token) {
    entries_.push_back({arrival, std::move(token)});
  }

  /// \brief Stable-sort by arrival time.
  void Sort();

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<TraceEntry>& entries() const { return entries_; }
  const TraceEntry& operator[](size_t i) const { return entries_[i]; }

  /// \brief Arrival time of the last entry (Timestamp(0) when empty).
  Timestamp EndTime() const;

  /// \brief Tuples with arrival in [from, to), for rate plots.
  size_t CountInRange(Timestamp from, Timestamp to) const;

  /// \brief Write as TSV: arrival_us \t field=value;field=value... Records
  /// only; scalar tokens serialize as a single `value=` field.
  Status SaveToFile(const std::string& path) const;

  /// \brief Parse a file produced by SaveToFile.
  static Result<Trace> LoadFromFile(const std::string& path);

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace cwf

#endif  // CONFLUENCE_STREAM_TRACE_H_
