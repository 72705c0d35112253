#include "ayd/service/protocol.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <sstream>
#include <utility>

#include "ayd/io/json.hpp"

namespace ayd::service {

namespace {

std::string serialize_value(const io::JsonValue& v) {
  std::ostringstream os;
  io::JsonWriter w(os, /*pretty=*/false);
  v.write(w);
  return os.str();
}

/// Appends `id` exactly as JsonWriter would write it. Null, booleans,
/// integers and strings are written straight into `out`; other numbers
/// keep the JsonWriter path so their %.17g formatting cannot drift.
void append_id(std::string& out, const io::JsonValue& id) {
  switch (id.kind()) {
    case io::JsonValue::Kind::kNull:
      out += "null";
      return;
    case io::JsonValue::Kind::kBool:
      out += id.as_bool() ? "true" : "false";
      return;
    case io::JsonValue::Kind::kString:
      out += '"';
      out += io::json_escape(id.as_string());
      out += '"';
      return;
    case io::JsonValue::Kind::kNumber:
      if (id.is_integer()) {
        char buf[24];
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof buf, id.as_int());
        out.append(buf, r.ptr);
        return;
      }
      break;
    default:
      break;
  }
  out += serialize_value(id);
}

/// The CLI option spelling of one scalar parameter value; numbers are
/// formatted into `buf`.
std::string_view value_to_cli(const std::string& name, const io::JsonValue& v,
                              char (&buf)[40]) {
  switch (v.kind()) {
    case io::JsonValue::Kind::kString:
      return v.as_string();
    case io::JsonValue::Kind::kNumber: {
      if (v.is_integer()) {
        const std::to_chars_result r =
            std::to_chars(buf, buf + sizeof buf, v.as_int());
        return {buf, static_cast<std::size_t>(r.ptr - buf)};
      }
      // to_chars with precision 17 prints exactly %.17g's "C"-locale
      // text, whatever the host locale (see JsonWriter::value(double)).
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof buf, v.as_double(),
                        std::chars_format::general, 17);
      return {buf, static_cast<std::size_t>(r.ptr - buf)};
    }
    default:
      throw ProtocolError(
          "bad_request",
          "parameter \"" + name + "\" must be a scalar (string, number, "
          "or boolean)");
  }
}

/// The one spelling normaliser behind params_to_argv and argv_key:
/// calls emit(name, value) per CLI argument, where `name` is the option
/// name with underscores as hyphens and `value` is its text, or nullopt
/// for a set flag.
template <class Emit>
void for_each_cli_arg(const Params& params, Emit&& emit) {
  std::string name;
  char buf[40];
  for (const auto& [raw_name, value] : params) {
    // A '=' inside a member name would silently splice into the
    // --name=value argv syntax ({"procs=512": true} must not become
    // --procs=512).
    if (raw_name.find('=') != std::string::npos) {
      throw ProtocolError("bad_request", "parameter name \"" + raw_name +
                                             "\" must not contain '='");
    }
    // Accept underscores as hyphens so JSON-friendly spellings
    // ("ci_rel_tol") reach the option table ("ci-rel-tol").
    name = raw_name;
    std::replace(name.begin(), name.end(), '_', '-');
    if (value.is_bool()) {
      // Flags: true sets, false means "leave at default" (there is no
      // --no-X vocabulary in the CLI either).
      if (value.as_bool()) emit(name, std::nullopt);
      continue;
    }
    if (value.is_null()) {
      throw ProtocolError("bad_request",
                          "parameter \"" + raw_name + "\" must not be null");
    }
    emit(name, std::optional<std::string_view>(
                   value_to_cli(raw_name, value, buf)));
  }
}

}  // namespace

Request parse_request(const std::string& line) {
  io::JsonValue doc;
  try {
    doc = io::parse_json(line);
  } catch (const util::Error& e) {
    throw ProtocolError("parse_error", e.what());
  }
  if (!doc.is_object()) {
    throw ProtocolError("parse_error", "request line must be a JSON object");
  }
  Request req;
  req.params = std::move(doc).members();
  // The first "id" and the first "op" count, like JsonValue::find.
  io::JsonValue* id = nullptr;
  io::JsonValue* op = nullptr;
  for (auto& [key, value] : req.params) {
    if (id == nullptr && key == "id") id = &value;
    if (op == nullptr && key == "op") op = &value;
  }
  // The id is extracted before anything can fail validation, so even a
  // rejected request's error reply still carries the client's
  // correlation handle (a non-scalar id is the one exception — there is
  // nothing sensible to echo).
  if (id != nullptr) {
    if (id->is_array() || id->is_object()) {
      throw ProtocolError("bad_request", "\"id\" must be a scalar");
    }
    req.id = std::move(*id);
  }
  if (op == nullptr) {
    throw ProtocolError(req.id, "bad_request", "request is missing \"op\"");
  }
  if (!op->is_string()) {
    throw ProtocolError(req.id, "bad_request", "\"op\" must be a string");
  }
  req.op = op->as_string();
  std::erase_if(req.params, [](const auto& member) {
    return member.first == "op" || member.first == "id";
  });
  return req;
}

std::vector<std::string> params_to_argv(const Params& params) {
  std::vector<std::string> argv;
  argv.reserve(params.size());
  for_each_cli_arg(params, [&](std::string_view name,
                               std::optional<std::string_view> value) {
    std::string arg = "--";
    arg += name;
    if (value.has_value()) {
      arg += '=';
      arg += *value;
    }
    argv.push_back(std::move(arg));
  });
  return argv;
}

std::string argv_key(std::string_view op, const Params& params) {
  std::string key;
  key.reserve(op.size() + 32 * params.size() + 1);
  key += op;
  key += '\n';
  for_each_cli_arg(params, [&](std::string_view name,
                               std::optional<std::string_view> value) {
    // Length prefix of "--name[=value]": the concatenation stays
    // injective whatever bytes a value holds.
    const std::size_t size =
        2 + name.size() + (value.has_value() ? 1 + value->size() : 0);
    key += std::to_string(size);
    key += ":--";
    key += name;
    if (value.has_value()) {
      key += '=';
      key += *value;
    }
  });
  return key;
}

std::string make_ok_reply(const io::JsonValue& id, std::string_view op,
                          std::string_view result_json) {
  std::string out;
  out.reserve(result_json.size() + op.size() + 64);
  out += "{\"id\":";
  append_id(out, id);
  out += ",\"ok\":true,\"op\":\"";
  out += io::json_escape(op);
  out += "\",\"result\":";
  out += result_json;
  out += "}";
  return out;
}

std::string make_error_reply(const io::JsonValue& id, std::string_view code,
                             std::string_view message) {
  std::string out = "{\"id\":";
  append_id(out, id);
  out += ",\"ok\":false,\"error\":{\"code\":\"";
  out += io::json_escape(code);
  out += "\",\"message\":\"";
  out += io::json_escape(message);
  out += "\"}}";
  return out;
}

}  // namespace ayd::service
