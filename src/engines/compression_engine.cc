#include "src/engines/compression_engine.h"

#include "src/common/compress.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "compression";

}  // namespace

CompressionEngine::CompressionEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}),
      options_(options) {}

void CompressionEngine::OnPropose(LogEntry* entry) {
  if (!enabled() || entry->payload.size() < options_.min_payload_bytes) {
    entry->SetHeader(name(), EngineHeader{kMsgTypeApp, "0"});
    return;
  }
  std::string compressed = Compress(entry->payload);
  bytes_in_.fetch_add(entry->payload.size(), std::memory_order_relaxed);
  if (compressed.size() >= entry->payload.size()) {
    // Incompressible: ship the original (still counts toward the ratio).
    bytes_out_.fetch_add(entry->payload.size(), std::memory_order_relaxed);
    entry->SetHeader(name(), EngineHeader{kMsgTypeApp, "0"});
    return;
  }
  bytes_out_.fetch_add(compressed.size(), std::memory_order_relaxed);
  entry->payload = std::move(compressed);
  entry->SetHeader(name(), EngineHeader{kMsgTypeApp, "1"});
}

std::any CompressionEngine::ApplyData(RWTxn& txn, const LogEntry& entry, LogPos pos) {
  const std::optional<EngineHeaderView>& header = apply_header();
  if (!header.has_value() || header->blob != "1") {
    decompressed_carry_.Push(pos, std::nullopt);
    return CallUpstream(txn, entry, pos);
  }
  // Restore the payload; the layers above see the original entry.
  LogEntry decompressed = entry;
  decompressed.payload = Decompress(entry.payload);
  std::any result = CallUpstream(txn, decompressed, pos);
  decompressed_carry_.Push(pos, std::move(decompressed));
  return result;
}

void CompressionEngine::PostApplyData(const LogEntry& entry, LogPos pos) {
  std::optional<LogEntry> decompressed = decompressed_carry_.Take(pos).value_or(std::nullopt);
  if (decompressed.has_value()) {
    ForwardPostApply(*decompressed, pos);
  } else {
    ForwardPostApply(entry, pos);
  }
}

}  // namespace delos
