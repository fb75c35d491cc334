#include "server/protocol.h"

#include <limits>
#include <string>

#include "common/macros.h"
#include "common/string_util.h"

namespace cape::server {

namespace {

/// Applies one `key=value` header pair to `request`.
Status ApplyHeaderPair(std::string_view key, std::string_view value, Request* request) {
  if (key == "id") {
    CAPE_ASSIGN_OR_RETURN(request->id, ParseInt64(value));
    return Status::OK();
  }
  if (key == "tenant") {
    if (value.empty()) return Status::InvalidArgument("empty tenant in request header");
    request->tenant = std::string(value);
    return Status::OK();
  }
  if (key == "deadline_ms") {
    CAPE_ASSIGN_OR_RETURN(request->deadline_ms, ParseInt64(value));
    if (request->deadline_ms < 0) {
      return Status::InvalidArgument("deadline_ms must be >= 0");
    }
    return Status::OK();
  }
  if (key == "top_k") {
    CAPE_ASSIGN_OR_RETURN(request->top_k, ParseInt64(value));
    if (request->top_k < 0 || request->top_k > std::numeric_limits<int>::max()) {
      return Status::InvalidArgument("top_k must be in [0, " +
                                     std::to_string(std::numeric_limits<int>::max()) + "]");
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown request header key '" + std::string(key) + "'");
}

}  // namespace

Result<Request> ParseRequestLine(const std::string& line) {
  Request request;
  std::string_view rest = TrimWhitespace(line);
  if (!rest.empty() && rest.front() == '[') {
    const size_t close = rest.find(']');
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("unterminated request header: missing ']'");
    }
    const std::string_view header = rest.substr(1, close - 1);
    for (const std::string& pair : SplitString(header, ' ')) {
      const std::string_view trimmed = TrimWhitespace(pair);
      if (trimmed.empty()) continue;
      const size_t eq = trimmed.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument("request header entry '" + std::string(trimmed) +
                                       "' is not key=value");
      }
      CAPE_RETURN_IF_ERROR(
          ApplyHeaderPair(trimmed.substr(0, eq), trimmed.substr(eq + 1), &request));
    }
    rest = TrimWhitespace(rest.substr(close + 1));
  }
  if (rest.empty()) return Status::InvalidArgument("empty statement");
  request.statement = std::string(rest);
  return request;
}

const char* OutcomeToString(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kDegraded:
      return "degraded";
    case Outcome::kTruncated:
      return "truncated";
    case Outcome::kShed:
      return "shed";
    case Outcome::kOverloaded:
      return "overloaded";
    case Outcome::kRetryAfter:
      return "retry_after";
    case Outcome::kError:
      return "error";
  }
  return "error";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
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
          out += StringFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ValueToJson(const Value& value) {
  if (value.is_null()) return "null";
  switch (value.type()) {
    case DataType::kInt64:
      return std::to_string(value.int64_value());
    case DataType::kDouble:
      return FormatDouble(value.double_value());
    case DataType::kString: {
      // Built by append rather than operator+ chains: GCC 12's -Wrestrict
      // false-positives on `"..." + temporary + "..."` (PR105651).
      std::string out = "\"";
      out += JsonEscape(value.string_value());
      out += '"';
      return out;
    }
  }
  return "null";
}

std::string RenderResponse(const Response& response) {
  std::string out = "{\"id\":" + std::to_string(response.id) + ",\"outcome\":\"" +
                    OutcomeToString(response.outcome) + "\"";
  if (response.outcome == Outcome::kError) {
    out += ",\"error\":\"" + JsonEscape(response.error) + "\"";
  }
  if (response.retry_after_ms >= 0) {
    out += ",\"retry_after_ms\":" + std::to_string(response.retry_after_ms);
  }
  out += ",\"elapsed_ms\":" + std::to_string(response.elapsed_ms);
  if (!response.payload_json.empty()) {
    out += ",\"result\":" + response.payload_json;
  }
  return out + "}";
}

std::string ExplanationsToJson(const std::vector<Explanation>& explanations,
                               const Schema& schema) {
  std::string out = "[";
  bool first_expl = true;
  for (const Explanation& e : explanations) {
    if (!first_expl) out += ",";
    first_expl = false;
    out += "{\"tuple\":{";
    const std::vector<int> attrs = e.tuple_attrs.ToIndices();
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) out += ",";
      out += '"';
      out += JsonEscape(schema.field(attrs[i]).name);
      out += "\":";
      out += ValueToJson(e.tuple_values[i]);
    }
    out += "},\"agg_value\":" + FormatDouble(e.agg_value);
    out += ",\"predicted\":" + FormatDouble(e.predicted);
    out += ",\"deviation\":" + FormatDouble(e.deviation);
    out += ",\"distance\":" + FormatDouble(e.distance);
    out += ",\"score\":" + FormatDouble(e.score) + "}";
  }
  return out + "]";
}

std::string TableToJson(const Table& table, int64_t max_rows) {
  const Schema& schema = *table.schema();
  std::string out = "{\"columns\":[";
  for (int c = 0; c < schema.num_fields(); ++c) {
    if (c > 0) out += ",";
    out += '"';
    out += JsonEscape(schema.field(c).name);
    out += '"';
  }
  const int64_t rows = table.num_rows() < max_rows ? table.num_rows() : max_rows;
  out += "],\"rows\":[";
  for (int64_t r = 0; r < rows; ++r) {
    if (r > 0) out += ",";
    out += "[";
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ",";
      out += ValueToJson(table.GetValue(r, c));
    }
    out += "]";
  }
  out += "],\"num_rows\":" + std::to_string(table.num_rows());
  if (rows < table.num_rows()) out += ",\"rows_elided\":true";
  return out + "}";
}

}  // namespace cape::server
