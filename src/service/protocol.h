// The line-delimited JSON-RPC protocol of viewcapd.
//
// Framing: one JSON object per line in each direction (empty lines are
// ignored). A request is
//
//   {"id": 7, "method": "answerable",
//    "params": {"view": "W", "query": "r", "threads": 2}}
//
// and the reply echoes the id with either "result" or "error":
//
//   {"id": 7, "result": {"ok": true, "exit_code": 0, "verdict": true,
//                        "witness": "w1 * w2", "output": "answerable..."}}
//   {"id": 7, "error": {"code": "NotFound", "message": "view 'X'"}}
//
// Methods are the Request kinds (service/dispatcher.h) by their canonical
// names — load, list, export, equiv, answerable (alias membership),
// nonredundant, simplify, lattice, minimize, capacity, eval, compose,
// report (alias analyze), lint, stats — plus the server-level "ping" and
// "shutdown". The "stats" reply carries the live engine snapshot
// (Engine::StatsSnapshot) plus uptime/request/session counters.
//
// Every analysis reply's "output" field is byte-identical to the one-shot
// CLI's stdout for the same command: both front ends share the
// Dispatcher, and tools/diff_cli_daemon.py pins the equality.
#ifndef VIEWCAP_SERVICE_PROTOCOL_H_
#define VIEWCAP_SERVICE_PROTOCOL_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "service/dispatcher.h"
#include "service/json.h"

namespace viewcap {

/// Server-level counters the `stats` method reports next to the engine
/// snapshot. One instance per server process, shared by all sessions.
struct ServerStats {
  std::atomic<std::uint64_t> requests{0};  ///< Protocol lines handled.
  std::atomic<std::uint64_t> sessions{0};  ///< Sessions ever opened.
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();

  double UptimeSeconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
  }
};

/// Builds the typed Request for `method` from JSON-RPC `params`
/// (nullable). Fails with InvalidArgument on unknown methods or missing
/// required params. "ping"/"shutdown" are server-level, not request
/// kinds, and are rejected here — HandleRequestLine intercepts them.
Result<Request> RequestFromJson(std::string_view method,
                                const JsonValue* params);

/// The protocol rendering of `request` — {"method", "params"} without an
/// id. Inverse of RequestFromJson (used by tests and client generators).
JsonValue RequestToJson(const Request& request);

/// The "result" object for a successful (status-OK) response. `kind`
/// selects which structured facts apply (lint counters, verdicts).
JsonValue ResponseToJson(const Response& response, RequestKind kind);

/// Structured form of an EngineStats snapshot.
JsonValue EngineStatsToJson(const EngineStats& stats);

/// Outcome of one protocol line.
struct LineOutcome {
  std::string reply;      ///< One JSON line (no trailing newline).
  bool shutdown = false;  ///< The client asked the server to stop.
};

/// Handles one request line end to end: parse, intercept ping/shutdown/
/// stats enrichment, dispatch, serialize. Never throws and always
/// produces a reply line (malformed JSON gets an error with id null).
/// `server` may be null (no server-level counters; `stats` then reports
/// only the engine snapshot).
LineOutcome HandleRequestLine(Dispatcher& dispatcher, ServerStats* server,
                              std::string_view line);

/// Longest request line a session accepts, in bytes: about 1,000x the
/// largest example program.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

/// Serves one session: reads request lines from `in` until EOF or a
/// shutdown request, writing one reply line (flushed) per request. A
/// line longer than kMaxRequestLineBytes gets an InvalidArgument error
/// reply (id null) and is skipped through its newline, so one client
/// cannot grow the daemon's memory without bound; the session goes on.
/// Returns true when the client requested server shutdown.
bool ServeSession(Dispatcher& dispatcher, ServerStats* server,
                  std::istream& in, std::ostream& out);

}  // namespace viewcap

#endif  // VIEWCAP_SERVICE_PROTOCOL_H_
