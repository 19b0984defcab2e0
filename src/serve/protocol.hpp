// The daemon's wire protocol: line-delimited JSON, one request line in,
// one response line out, schema-versioned on both sides.
//
// Request:
//   {"schema_version": 1,          // optional; absent = 1; future → error
//    "id": "q1",                   // optional; echoed in the response
//    "cmd": "query",               // optional; query | ping | stats | shutdown
//    ...RequestSpec fields...}     // query only — the same keys and
//                                  // ranges as a --jobs experiment, except
//                                  // csv/front_csv (rejected: the daemon
//                                  // writes no client-named files)
//
// Response (always exactly one line):
//   {"schema_version": 1, "ok": true, "id": "q1", ...}        on success
//   {"schema_version": 1, "ok": false, "error": "..."}        on failure
//
// A "query" response carries the front rows (snapshot row fields, via
// append_result_json), the front/space accounting, and a "stats" object
// with the request's telemetry counters (store_hits, fresh_evaluations,
// coalesced, eval_batches, wall_ms, pool_*). "ping" answers trivially,
// "stats" reports dispatcher/store totals, "shutdown" acknowledges and
// asks the server to stop.
//
// Errors never tear the connection down: a malformed line yields an
// ok:false response and the next line is processed normally. The one
// exception is a TCP request line longer than kMaxRequestLineBytes: it is
// answered with an ok:false response and its connection is closed.
#pragma once

#include <cstddef>
#include <string>

namespace apsq::serve {

class Dispatcher;

/// The protocol schema this build speaks (requests and responses).
inline constexpr int kProtocolSchemaVersion = 1;

/// The longest request line (newline excluded) the TCP server buffers.
inline constexpr size_t kMaxRequestLineBytes = size_t{1} << 20;

/// An ok:false response line carrying `msg` (and `id` when non-empty).
std::string error_response(const std::string& id, const std::string& msg);

/// Outcome of one request line.
struct LineResult {
  std::string response;  ///< one JSON line, no trailing newline
  bool ok = false;       ///< response carries "ok": true
  bool shutdown = false; ///< the line was an acknowledged shutdown command
};

/// Parse one request line, dispatch it, and render the response line.
/// Never throws — every failure (bad JSON, unknown key, unsupported
/// schema_version, invalid config, store inconsistency) becomes an
/// ok:false response.
LineResult handle_request_line(Dispatcher& dispatcher,
                               const std::string& line);

}  // namespace apsq::serve
