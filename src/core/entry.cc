#include "src/core/entry.h"

#include "src/common/serde.h"

namespace delos {

namespace {

EngineHeaderView DecodeHeaderView(std::string_view bytes) {
  Deserializer de(bytes);
  EngineHeaderView header;
  header.msgtype = de.ReadVarint();
  header.blob = de.ReadStringView();
  return header;
}

// Walks Serialize()'s format: add(name, bytes) per header, then returns the
// payload. The views borrow from `bytes`. Headers arrive in map order, so an
// insert at the end hint is O(1).
template <typename AddHeader>
std::string_view ParseEntry(std::string_view bytes, AddHeader add) {
  Deserializer de(bytes);
  const uint64_t count = de.ReadVarint();
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name = de.ReadStringView();
    add(name, de.ReadStringView());
  }
  return de.ReadStringView();
}

}  // namespace

std::string LogEntry::Serialize() const {
  Serializer ser(SerializedSize());
  SerializeInto(ser);
  return ser.Release();
}

void LogEntry::SerializeInto(Serializer& ser) const {
  ser.WriteMap(
      headers, [](Serializer& s, const std::string& k) { s.WriteString(k); },
      [](Serializer& s, const std::string& v) { s.WriteString(v); });
  ser.WriteString(payload);
}

size_t LogEntry::SerializedSize() const {
  size_t size = Serializer::VarintSize(headers.size());
  for (const auto& [name, bytes] : headers) {
    size += Serializer::StringSize(name) + Serializer::StringSize(bytes);
  }
  return size + Serializer::StringSize(payload);
}

LogEntry LogEntry::Deserialize(std::string_view bytes) {
  LogEntry entry;
  entry.payload = ParseEntry(bytes, [&](std::string_view name, std::string_view value) {
    entry.headers.emplace_hint(entry.headers.end(), name, value);
  });
  return entry;
}

void LogEntry::SetHeader(const std::string& engine, const EngineHeader& header) {
  Serializer ser(Serializer::VarintSize(header.msgtype) + Serializer::StringSize(header.blob));
  ser.WriteVarint(header.msgtype);
  ser.WriteString(header.blob);
  headers[engine] = ser.Release();
}

std::optional<EngineHeader> LogEntry::GetHeader(std::string_view engine) const {
  auto view = GetHeaderView(engine);
  if (!view.has_value()) {
    return std::nullopt;
  }
  return view->Materialize();
}

std::optional<EngineHeaderView> LogEntry::GetHeaderView(std::string_view engine) const {
  auto it = headers.find(engine);
  if (it == headers.end()) {
    return std::nullopt;
  }
  return DecodeHeaderView(it->second);
}

LogEntryView LogEntryView::Parse(std::string_view bytes) {
  LogEntryView view;
  view.payload = ParseEntry(bytes, [&](std::string_view name, std::string_view value) {
    view.headers.emplace_hint(view.headers.end(), name, value);
  });
  return view;
}

std::optional<EngineHeaderView> LogEntryView::GetHeader(std::string_view engine) const {
  auto it = headers.find(engine);
  if (it == headers.end()) {
    return std::nullopt;
  }
  return DecodeHeaderView(it->second);
}

LogEntry LogEntryView::Materialize() const {
  LogEntry entry;
  for (const auto& [name, bytes] : headers) {
    entry.headers.emplace(std::string(name), std::string(bytes));
  }
  entry.payload = std::string(payload);
  return entry;
}

LogEntry MakeControlEntry(const std::string& engine, uint64_t msgtype, std::string blob) {
  LogEntry entry;
  entry.SetHeader(engine, EngineHeader{msgtype, std::move(blob)});
  return entry;
}

void SetTraceIds(LogEntry* entry, const std::vector<uint64_t>& ids) {
  Serializer ser;
  ser.WriteVarint(ids.size());
  for (const uint64_t id : ids) {
    ser.WriteVarint(id);
  }
  entry->SetHeader(kTraceHeaderName, EngineHeader{kMsgTypeApp, ser.Release()});
}

void SetClientIds(LogEntry* entry, const std::vector<uint64_t>& ids) {
  Serializer ser;
  ser.WriteVarint(ids.size());
  for (const uint64_t id : ids) {
    ser.WriteVarint(id);
  }
  entry->SetHeader(kClientHeaderName, EngineHeader{kMsgTypeApp, ser.Release()});
}

void MarkCommitBarrier(LogEntry* entry) {
  entry->SetHeader(kCommitBarrierHeaderName, EngineHeader{});
}

void IdList::push_back(uint64_t id) {
  if (size_ < kInline) {
    inline_[size_++] = id;
    return;
  }
  if (size_ == kInline) {
    heap_.assign(inline_, inline_ + kInline);
  }
  heap_.push_back(id);
  ++size_;
}

IdList ParseIds(const LogEntry& entry, std::string_view header) {
  IdList ids;
  try {
    auto view = entry.GetHeaderView(header);
    if (!view.has_value()) {
      return ids;
    }
    Deserializer de(view->blob);
    const uint64_t count = de.ReadVarint();
    for (uint64_t i = 0; i < count; ++i) {
      ids.push_back(de.ReadVarint());
    }
  } catch (const SerdeError&) {
    return IdList{};
  }
  return ids;
}

}  // namespace delos
