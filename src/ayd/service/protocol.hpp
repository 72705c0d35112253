// The planning service's NDJSON wire protocol: request parsing and reply
// envelopes.
//
// One JSON object per line in, one JSON object per line out. A request is
//   {"op": "optimize" | "simulate" | "plan" | "stats" | "subscribe",
//    "id": <any scalar>, <parameter>: <value>, ...}
// where every member other than "op" and "id" is an operation parameter
// named exactly like the corresponding `ayd <op>` CLI option (hyphens or
// underscores — "ci_rel_tol" and "ci-rel-tol" both work). The one
// exception is "subscribe", whose telemetry payload ("events": an array
// of gap seconds, or "telemetry": failure-log CSV text) is intentionally
// non-scalar and is split off before the argv bridge runs. Replies echo
// the request id:
//   {"id": <id>, "ok": true,  "op": <op>, "result": {...}}
//   {"id": <id>, "ok": false, "error": {"code": "...", "message": "..."}}
// Replies may complete out of request order; the id is the correlation
// handle. The full specification lives in docs/service.md.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ayd/io/json_parse.hpp"
#include "ayd/util/error.hpp"

namespace ayd::service {

/// A protocol-level failure with a machine-readable error code (the
/// "code" field of the error envelope): "parse_error", "bad_request",
/// "unknown_op", or "internal".
class ProtocolError : public util::Error {
 public:
  ProtocolError(std::string code, const std::string& message)
      : util::Error(message), code_(std::move(code)) {}
  /// Variant carrying the request id extracted before the failure, so
  /// the error reply can still echo the client's correlation handle.
  ProtocolError(io::JsonValue id, std::string code,
                const std::string& message)
      : util::Error(message), code_(std::move(code)), id_(std::move(id)) {}
  [[nodiscard]] const std::string& code() const { return code_; }
  /// The id to echo in the error envelope (null when the request never
  /// parsed far enough to yield one).
  [[nodiscard]] const io::JsonValue& id() const { return id_; }

 private:
  std::string code_;
  io::JsonValue id_;
};

/// A request's operation parameters, in source order.
using Params = std::vector<std::pair<std::string, io::JsonValue>>;

/// One parsed request line.
struct Request {
  std::string op;
  /// The request's "id" member, echoed verbatim into the reply (null
  /// when the request carried none).
  io::JsonValue id;
  /// Every member except "op" and "id", in source order.
  Params params;
};

/// Parses one NDJSON line. Throws ProtocolError("parse_error") on
/// malformed JSON or a non-object line, ProtocolError("bad_request")
/// when "op" is missing or not a string. The id and the parameters are
/// moved out of the parsed document, not copied.
[[nodiscard]] Request parse_request(const std::string& line);

/// Converts request parameters into the CLI argv vocabulary the spec
/// parsers consume: {"procs": 512} -> "--procs=512", {"simulate": true}
/// -> "--simulate", {"platform": "hera"} -> "--platform=hera". Integers
/// print without exponents, other numbers round-trip exactly via %.17g,
/// false omits the flag, and non-scalar values throw
/// ProtocolError("bad_request").
[[nodiscard]] std::vector<std::string> params_to_argv(const Params& params);

/// The bytes of (op, params_to_argv(params)) without materialising the
/// argv: the op, then every argument length-prefixed, so two requests
/// share a key exactly when the spec parser would see the same op and
/// argv. Spellings params_to_argv collapses (underscores, false flags,
/// 512 vs 512.0) collapse here too, because both run the same
/// normaliser. Throws exactly what params_to_argv throws.
[[nodiscard]] std::string argv_key(std::string_view op, const Params& params);

/// Assembles {"id":...,"ok":true,"op":...,"result":...} around
/// `result_json`.
/// `result_json` is spliced verbatim and must be a complete JSON value.
[[nodiscard]] std::string make_ok_reply(const io::JsonValue& id,
                                        std::string_view op,
                                        std::string_view result_json);

/// Assembles {"id":...,"ok":false,"error":{"code":...,"message":...}}.
[[nodiscard]] std::string make_error_reply(const io::JsonValue& id,
                                           std::string_view code,
                                           std::string_view message);

}  // namespace ayd::service
