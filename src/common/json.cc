#include "src/common/json.h"

#include <cstdio>

namespace delos {

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!nonempty_.empty()) {
    if (nonempty_.back()) {
      out_ += ',';
    }
    nonempty_.back() = true;
  }
}

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  out_ += bracket;
  nonempty_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  out_ += bracket;
  nonempty_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  String(key);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  out_ += '"';
  out_ += JsonEscape(value);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return Raw(buf);
}

JsonWriter& JsonWriter::Double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return Raw(buf);
}

JsonWriter& JsonWriter::Raw(std::string_view json) {
  Separate();
  out_ += json;
  return *this;
}

}  // namespace delos
