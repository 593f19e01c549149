#include "obs/manifest.h"

#include <utility>

#include "obs/events.h"

#ifndef ARBMIS_GIT_SHA
#define ARBMIS_GIT_SHA "unknown"
#endif

namespace arbmis::obs {

Manifest make_manifest(std::string tool) {
  Manifest m;
  m.git_sha = ARBMIS_GIT_SHA;
#ifdef NDEBUG
  m.build_type = "Release";
#else
  m.build_type = "Debug";
#endif
  m.tool = std::move(tool);
  return m;
}

namespace {

void append_string_field(std::string& out, const char* key,
                         std::string_view value, bool first = false) {
  if (!first) out += ',';
  out += '"';
  out += key;
  out += "\":\"";
  append_json_escaped(out, value);
  out += '"';
}

}  // namespace

std::string to_json_object(const Manifest& m) {
  std::string out = "{";
  append_string_field(out, "schema", m.schema, /*first=*/true);
  append_string_field(out, "git_sha", m.git_sha);
  append_string_field(out, "build_type", m.build_type);
  append_string_field(out, "tool", m.tool);
  append_string_field(out, "workload", m.workload);
  out += ",\"seed\":" + std::to_string(m.seed);
  out += ",\"nodes\":" + std::to_string(m.nodes);
  out += ",\"edges\":" + std::to_string(m.edges);
  out += ",\"threads\":" + std::to_string(m.threads);
  append_string_field(out, "extra", m.extra);
  out += '}';
  return out;
}

std::string to_json_line(const Manifest& m) {
  return "{\"manifest\":" + to_json_object(m) +
         ",\"events\":" + event_table_json() + "}";
}

}  // namespace arbmis::obs
