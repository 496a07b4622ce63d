// JSON output for every admin render (the planes' `?format=json` bodies and
// `delosctl --json`): one string escaper and one compact writer.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace delos {

// Escapes `text` for the inside of a JSON string: `"`, `\`, newline, CR and
// TAB become \", \\, \n, \r and \t, every other byte below 0x20 becomes
// \u00xx, and all other bytes (UTF-8 included) pass through.
std::string JsonEscape(std::string_view text);

// Builds one compact JSON document (no whitespace). The writer places the
// commas and the key/value colons itself and escapes every key and string:
//
//   JsonWriter w;
//   w.BeginObject().Key("server").String(id).Key("stack").BeginArray();
//   for (...) w.BeginObject().Key("name").String(name).EndObject();
//   w.EndArray().EndObject();
//   return w.str();
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }
  // Names the next value inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  template <typename T>
    requires std::integral<T> && (!std::same_as<T, bool>)
  JsonWriter& Int(T value) {
    return Raw(std::to_string(value));
  }
  // `decimals` fixed decimals ("%.*f").
  JsonWriter& Fixed(double value, int decimals);
  // The iostream default format ("%g": six significant digits).
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  // A value that is already JSON (an embedded render).
  JsonWriter& Raw(std::string_view json);

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  // Writes the comma that separates this value from the previous one.
  void Separate();

  std::string out_;
  // One entry per open object or array: whether it holds a value yet.
  std::vector<bool> nonempty_;
  bool after_key_ = false;
};

}  // namespace delos
