#include "obs/events.h"

#include <cstdio>

namespace arbmis::obs {

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string to_json_line(const Event& e) {
  const EventSchema& schema = event_schema(e.kind);
  std::string out;
  out.reserve(64 + e.text.size());
  out += "{\"ev\":\"";
  out += schema.name;
  out += "\",\"round\":";
  out += std::to_string(e.round);
  const std::uint32_t n = std::min(e.num_values, schema.num_fields);
  for (std::uint32_t i = 0; i < n; ++i) {
    out += ",\"";
    out += schema.fields[i];
    out += "\":";
    out += std::to_string(e.values[i]);
  }
  if (schema.text_field != nullptr) {
    out += ",\"";
    out += schema.text_field;
    out += "\":\"";
    append_json_escaped(out, e.text);
    out += '"';
  }
  out += '}';
  return out;
}

std::string event_table_json() {
  std::string out;
  const auto quote = [&out](const char* s) {  // nullptr renders as null
    if (s == nullptr) {
      out += "null";
      return;
    }
    out += '"';
    out += s;
    out += '"';
  };
  for (const EventSchema& schema : kEventSchemas) {
    out += out.empty() ? "[{\"name\":" : ",{\"name\":";
    quote(schema.name);
    out += ",\"text\":";
    quote(schema.text_field);
    out += ",\"fields\":[";
    for (std::uint32_t i = 0; i < schema.num_fields; ++i) {
      if (i != 0) out += ',';
      quote(schema.fields[i]);
    }
    out += "]}";
  }
  return out + ']';
}

}  // namespace arbmis::obs
