// LogEntry: the unit that flows down the engine stack into the shared log
// and back up through apply upcalls.
//
// Per §3.4 ("Static Typing"), Delos moved from a literal stack of buffers to
// a *map of headers* keyed by engine, plus an application payload: an engine
// checks whether its own header is present and otherwise passes the entry
// through, which keeps old entries replayable across stack upgrades. Each
// header carries a message type — kMsgTypeApp marks entries piggybacked on
// application proposals; any other value marks an engine-generated control
// command that the engine consumes without forwarding upstream.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace delos {

class Serializer;

// Message type used by every engine for headers piggybacked on application
// data. Engine-specific control commands use values >= 1.
inline constexpr uint64_t kMsgTypeApp = 0;

struct EngineHeader {
  uint64_t msgtype = kMsgTypeApp;
  std::string blob;  // engine-specific serialized fields
};

// Borrowed header: blob points into the entry (or log record) it was read
// from and is valid only while that buffer lives. The apply path uses these
// so per-entry header dispatch never copies blobs.
struct EngineHeaderView {
  uint64_t msgtype = kMsgTypeApp;
  std::string_view blob;

  EngineHeader Materialize() const { return EngineHeader{msgtype, std::string(blob)}; }
};

struct LogEntry {
  // Engine name -> serialized EngineHeader.
  std::map<std::string, std::string, std::less<>> headers;
  // Application payload (opaque to all engines).
  std::string payload;

  std::string Serialize() const;
  // Appends Serialize()'s bytes to `ser` without an intermediate string.
  void SerializeInto(Serializer& ser) const;
  // Exact encoded size of Serialize()'s output (used to right-size buffers).
  size_t SerializedSize() const;
  // Decodes in one pass, copying `bytes` once. Throws SerdeError on
  // malformed input.
  static LogEntry Deserialize(std::string_view bytes);

  void SetHeader(const std::string& engine, const EngineHeader& header);
  std::optional<EngineHeader> GetHeader(std::string_view engine) const;
  // Zero-copy variant: the returned blob borrows from this entry's stored
  // header and must not outlive it (nor a SetHeader on the same engine).
  std::optional<EngineHeaderView> GetHeaderView(std::string_view engine) const;
  bool HasHeader(std::string_view engine) const { return headers.count(engine) != 0; }
};

// Borrowed decode of a serialized LogEntry: every header name, header bytes,
// and the payload are string_views into the input buffer — nothing is
// copied. The apply pipeline parses each log record into a view first (cheap
// validation + base-header peek) and materializes an owning LogEntry only
// when the record is handed to the upcall chain.
struct LogEntryView {
  std::map<std::string_view, std::string_view, std::less<>> headers;
  std::string_view payload;

  // Throws SerdeError on malformed input. `bytes` must outlive the view.
  static LogEntryView Parse(std::string_view bytes);

  std::optional<EngineHeaderView> GetHeader(std::string_view engine) const;
  bool HasHeader(std::string_view engine) const { return headers.count(engine) != 0; }

  // Copies the borrowed maps/payload into an owning entry, reserving exact
  // sizes (single pass, no re-parse).
  LogEntry Materialize() const;
};

// Convenience for engines generating their own control entries.
LogEntry MakeControlEntry(const std::string& engine, uint64_t msgtype, std::string blob);

// Trace-id piggybacking (the tracing subsystem in src/common/trace.h).
//
// A proposal's trace ids travel exactly like any engine's state: as one more
// entry in the header map, under a name no engine claims. Every layer —
// including layers that predate tracing — passes the header through
// untouched, so a trace survives stack upgrades and mixed-version replicas
// for free (the same argument §3.4 makes for engine headers). The value is a
// varint-count-prefixed list of ids rather than a single id because the
// BatchingEngine folds many proposals into one control entry: the batch
// entry carries the union, so the shared append attributes to every
// constituent trace.
inline constexpr char kTraceHeaderName[] = "trace";

void SetTraceIds(LogEntry* entry, const std::vector<uint64_t>& ids);

// Client-id piggybacking (the workload attribution plane in
// src/common/workload.h).
//
// The proposing client's compact id travels exactly like trace ids: one
// more reserved header every layer passes through untouched. It is a list
// for the same reason — the BatchingEngine folds many proposals into one
// control entry and stamps the union, so the shared append (and each
// sub-entry's apply) attributes to every constituent client. Attribution is
// diagnostic: a malformed blob yields "unattributed", never a failed apply.
inline constexpr char kClientHeaderName[] = "client";

void SetClientIds(LogEntry* entry, const std::vector<uint64_t>& ids);

// Commit barrier: a record carrying this reserved header opens a new group
// commit. The BaseEngine commits the records before it first, so when the
// record applies, its transaction holds nothing staged and the store's
// committed state is exactly the prefix before it. Any layer may mark its
// proposals; the header carries no fields and every layer passes it through.
inline constexpr char kCommitBarrierHeaderName[] = "barrier";

void MarkCommitBarrier(LogEntry* entry);

// The ids piggybacked under one reserved header (trace or client). Up to
// kInline ids live in place, so the common single-id entry is parsed with no
// allocation; a longer list (a batch entry carries one id per constituent,
// up to batch_max_entries) spills to the heap and keeps every id.
class IdList {
 public:
  static constexpr size_t kInline = 8;

  void push_back(uint64_t id);
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  uint64_t front() const { return data()[0]; }
  const uint64_t* begin() const { return data(); }
  const uint64_t* end() const { return data() + size_; }
  operator std::span<const uint64_t>() const { return {data(), size_}; }

 private:
  const uint64_t* data() const { return size_ <= kInline ? inline_ : heap_.data(); }

  uint64_t inline_[kInline] = {};
  std::vector<uint64_t> heap_;  // every id, once there are more than kInline
  size_t size_ = 0;
};

// Parses the id list under `header` (kTraceHeaderName or kClientHeaderName).
// Empty when the header is absent or malformed: ids are diagnostic, so a bad
// blob means "untraced" / "unattributed", never a failed apply.
IdList ParseIds(const LogEntry& entry, std::string_view header);

}  // namespace delos
