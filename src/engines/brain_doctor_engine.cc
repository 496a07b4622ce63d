#include "src/engines/brain_doctor_engine.h"

#include "src/common/serde.h"

namespace delos {

namespace {

constexpr char kEngineName[] = "braindoctor";

}  // namespace

BrainDoctorEngine::BrainDoctorEngine(Options options, IEngine* downstream, LocalStore* store)
    : StackableEngine(kEngineName, downstream, store,
                      StackableEngineOptions{options.start_enabled}) {}

Future<std::any> BrainDoctorEngine::ApplyRawWrites(std::vector<RawWrite> writes) {
  Serializer ser;
  ser.WriteVarint(writes.size());
  for (const auto& [key, value] : writes) {
    ser.WriteString(key);
    ser.WriteOptional(value, [](Serializer& s, const std::string& v) { s.WriteString(v); });
  }
  return ProposeControl(kMsgTypeWriteBatch, ser.Release());
}

std::any BrainDoctorEngine::ApplyControl(RWTxn& txn, const EngineHeader& header,
                                         const LogEntry& entry, LogPos pos) {
  if (header.msgtype != kMsgTypeWriteBatch) {
    return std::any(Unit{});
  }
  Deserializer de(header.blob);
  const uint64_t count = de.ReadVarint();
  for (uint64_t i = 0; i < count; ++i) {
    std::string key = de.ReadString();
    auto value =
        de.ReadOptional<std::string>([](Deserializer& d) { return d.ReadString(); });
    if (value.has_value()) {
      txn.Put(key, *value);
    } else {
      txn.Delete(key);
    }
  }
  // Raw repair writes bypass the application; leave an audit trail.
  probe().Record(FlightEventKind::kControl,
                 "braindoctor applied " + std::to_string(count) + " raw writes", 0, pos);
  return std::any(count);
}

}  // namespace delos
