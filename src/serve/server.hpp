// The daemon's transport layer: line-delimited JSON over a localhost TCP
// socket, plus a stream mode (stdin → stdout) so tests and scripts can
// drive the exact protocol without touching the network.
//
// Both transports are thin shells over handle_request_line — the
// dispatcher, the request validation, and the response bytes are shared,
// so a `printf | apsq_dsed --once` transcript is authoritative for what
// the TCP server speaks.
#pragma once

#include <chrono>
#include <iosfwd>
#include <string>

#include "common/types.hpp"

namespace apsq::serve {

class Dispatcher;

/// Serve requests from `in` (one JSON line each), writing one response
/// line per request to `out`. Returns the number of ok:false responses.
/// Stops at end-of-stream or after acknowledging a shutdown command.
i64 serve_stream(Dispatcher& dispatcher, std::istream& in, std::ostream& out);

struct ServeOptions {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port.
  int port = 0;
  /// When non-empty, the bound port is written here (as one decimal line)
  /// once the server is listening — how scripts find an ephemeral port.
  std::string port_file;
  /// Startup/shutdown log lines go here (nullptr = silent).
  std::ostream* log = nullptr;
  /// A connection that sends nothing for this long is closed, and so is
  /// one still sending after an oversize line once it pauses this long.
  std::chrono::milliseconds idle_timeout{std::chrono::minutes(5)};
};

/// Bind 127.0.0.1, accept connections (one service thread each, joined
/// after its connection closes), and serve until a client sends a
/// shutdown command. Requests from separate connections run concurrently
/// through the shared dispatcher — that concurrency is what miss
/// coalescing exists for. A request line longer than kMaxRequestLineBytes
/// is answered with an error and its connection closed, as is a
/// connection idle for `opts.idle_timeout`. Returns 0 on a clean
/// shutdown, 1 on a setup failure (bind/listen), with the reason on
/// `opts.log` if set.
int serve_tcp(Dispatcher& dispatcher, const ServeOptions& opts);

}  // namespace apsq::serve
