#ifndef CAPE_SERVER_PROTOCOL_H_
#define CAPE_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "explain/explanation.h"
#include "relational/table.h"

/// Wire protocol of the CAPE explanation server (DESIGN.md §13): one request
/// per line, one single-line JSON object per response, over any byte stream
/// (TCP in CapeServer, an in-process call in ServerHarness). Line protocols
/// keep the server scriptable with nothing fancier than netcat:
///
///   $ nc localhost 7077
///   [id=1 tenant=alice deadline_ms=250 top_k=3] EXPLAIN WHY count(*) IS LOW
///       FOR author = 'AX', venue = 'SIGKDD', year = 2007 FROM pub
///   {"id":1,"outcome":"ok","elapsed_ms":12,"result":[...]}
///
/// The bracketed header is optional and every key in it is optional;
/// requests without an id echo id 0. Statements are the SQL layer's
/// grammar (EXPLAIN WHY / SELECT) plus the server verbs STATS and PING.
/// Requests pipelined on one connection run concurrently, so their answers
/// arrive in completion order, not request order; each carries its
/// request's id for the client to match.

namespace cape::server {

/// A parsed request line: routing header + statement text.
struct Request {
  int64_t id = 0;             // echoed verbatim in the response
  std::string tenant = "default";
  int64_t deadline_ms = 0;    // 0 = server default
  int64_t top_k = 0;          // 0 = statement / engine default; <= INT_MAX
  std::string statement;      // text after the header, unparsed
};

/// Parses `[k=v ...] statement`. InvalidArgument on unknown header keys,
/// malformed values, or an empty statement — admission must never queue a
/// request it cannot at least route.
Result<Request> ParseRequestLine(const std::string& line);

/// Every terminal state of a request. The protocol guarantee (and the chaos
/// harness's core assertion) is that each submitted request ends in exactly
/// one of these: an answer (kOk, kDegraded), a truncated answer
/// (kTruncated), or a structured rejection (kShed, kOverloaded, kRetryAfter,
/// kError).
enum class Outcome : int {
  kOk = 0,         // full answer
  kDegraded = 1,   // answer computed under a degradation tier (reduced top-k)
  kTruncated = 2,  // deadline hit mid-execution; best results so far
  kShed = 3,       // admitted, but the deadline expired before execution
  kOverloaded = 4, // rejected at admission: global queue full
  kRetryAfter = 5, // rejected at admission: tenant budget exhausted
  kError = 6,      // parse/validation/execution error (structured, not a crash)
};

const char* OutcomeToString(Outcome outcome);

/// True when the outcome carries (possibly truncated) results.
inline bool IsAnswer(Outcome outcome) {
  return outcome == Outcome::kOk || outcome == Outcome::kDegraded ||
         outcome == Outcome::kTruncated;
}

/// A response ready for serialization. `payload_json` is a pre-rendered
/// JSON value (array or object) injected verbatim as the "result" field.
struct Response {
  int64_t id = 0;
  Outcome outcome = Outcome::kError;
  std::string error;           // human-readable, only when outcome == kError
  int64_t retry_after_ms = -1; // >= 0 only when outcome == kRetryAfter
  int64_t elapsed_ms = 0;      // queue + execution wall time
  std::string payload_json;    // empty = no "result" field
};

/// Single-line JSON rendering (no trailing newline).
std::string RenderResponse(const Response& response);

/// JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& s);

/// Renders a Value as a JSON scalar (null / number / escaped string).
std::string ValueToJson(const Value& value);

/// Payload builders.
std::string ExplanationsToJson(const std::vector<Explanation>& explanations,
                               const Schema& schema);
std::string TableToJson(const Table& table, int64_t max_rows = 1000);

}  // namespace cape::server

#endif  // CAPE_SERVER_PROTOCOL_H_
