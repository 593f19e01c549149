// Run manifest: the reproducibility header every telemetry artifact
// carries. A trace, event stream, or metrics dump is only as useful as
// the ability to regenerate it, so the manifest pins everything a rerun
// needs: the git revision and build flavor of the binary, the seed, the
// workload description, and the executor configuration (thread count).
// Writers emit it as the first record of every file — including each file
// produced by sink rotation — so any artifact is reproducible from its
// header alone.
//
// The executor field (threads) lives ONLY here, never in events: it does
// not affect run semantics (the determinism-merge rule), and keeping it
// out of the event stream is what lets the differential harness compare
// streams across executor configurations byte for byte.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace arbmis::obs {

/// Telemetry wire-format version; bump on any breaking schema change
/// (tools/trace_inspect.py refuses unknown versions). v2 headers carry
/// the event table.
inline constexpr const char* kSchemaVersion = "arbmis.obs.v2";

struct Manifest {
  std::string schema = kSchemaVersion;
  std::string git_sha;     ///< revision the binary was configured from
  std::string build_type;  ///< "Release" / "Debug" (NDEBUG of this TU's lib)
  std::string tool;        ///< emitting binary, e.g. "bench_comparison"
  std::string workload;    ///< free-form graph/workload description
  std::uint64_t seed = 0;
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t threads = 0;  ///< simulator workers (0 = inline lane)
  std::string extra;          ///< free-form key=value notes

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Manifest pre-filled with build provenance (git sha baked in at
/// configure time, build flavor from NDEBUG) and the process-default
/// executor configuration.
Manifest make_manifest(std::string tool);

/// The bare manifest object `{...}`, for embedding inside other JSON
/// documents (the metrics dump, the Chrome trace's otherData).
std::string to_json_object(const Manifest& m);

/// The artifact header, one JSON line: {"manifest":{...},"events":[...]}.
/// "events" is the event table (event_table_json()), so readers decode
/// kinds and fields from the file itself; the leading "manifest" key is
/// how they tell the header apart from event records.
std::string to_json_line(const Manifest& m);

}  // namespace arbmis::obs
