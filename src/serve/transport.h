#ifndef AUTOBI_SERVE_TRANSPORT_H_
#define AUTOBI_SERVE_TRANSPORT_H_

#include <cstddef>
#include <string>

#include "common/status.h"
#include "serve/engine.h"

namespace autobi {

// Newline-delimited JSON transports for ServeEngine (POSIX only, no
// dependencies). Both run one read loop over file descriptors, until EOF
// or until the engine accepts a `shutdown` request, so their framing is
// the same: one request per input line, one response per output line; a
// '\r' before the '\n' is dropped, blank lines are ignored, and a last
// line without '\n' is served at EOF. Input is read 64 KiB at a time and
// each byte is searched for the newline once, so framing cost is linear
// in the request size.
//
// A request line longer than MaxRequestLineBytes is answered with one
// RESOURCE_EXHAUSTED error line; the socket transport then closes that
// connection and the stdio transport stops reading.

// The line cap: twice ServeOptions::max_csv_bytes (JSON escaping at most
// doubles a CSV byte, raw control bytes aside) plus a fixed 64 KiB for the
// request envelope. Unbounded when max_csv_bytes is 0 (no CSV cap).
size_t MaxRequestLineBytes(const ServeOptions& options);

// Serves over stdin/stdout — the mode `autobi_serve --stdio` runs in, and
// the easiest way to drive the daemon from a shell pipeline.
Status RunStdioServer(ServeEngine* engine);

// Binds (and, on exit, unlinks) a unix-domain socket at `path` and serves
// each accepted connection on its own thread; threads whose connection has
// ended are joined at the next accept, and a connection no thread can be
// started for is closed. Concurrency across connections is bounded by the
// engine's admission gate, not the transport.
// Shutdown is immediate: an accepted `shutdown` request wakes the accept
// loop and every idle connection through a self-pipe (no polling interval),
// and the engine flushes its durable state before the shutdown response is
// written.
Status RunUnixSocketServer(ServeEngine* engine, const std::string& path);

}  // namespace autobi

#endif  // AUTOBI_SERVE_TRANSPORT_H_
