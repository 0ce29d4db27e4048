#include "serve/protocol.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/json_escape.h"

namespace cqa::serve {

namespace {

// ---------------------------------------------------------------------------
// v2 binary codec primitives. Tag byte = (field << 3) | wire_type with
// protobuf-style wire types: 0 = varint, 1 = little-endian fixed64,
// 2 = length-delimited (varint byte count, then the bytes). Unknown
// fields are skipped by wire type so future minor additions stay
// readable; structural damage (truncated varint, length past the end,
// reserved wire type) is a hard decode error.
// ---------------------------------------------------------------------------

enum WireType { kWireVarint = 0, kWireFixed64 = 1, kWireLen = 2 };

// Binary payload kind byte (right after kBinaryMagic).
enum BinaryKind { kKindRequest = 1, kKindResponse = 2 };

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

void PutTag(std::string* out, int field, int wire) {
  out->push_back(static_cast<char>((field << 3) | wire));
}

void PutVarintField(std::string* out, int field, uint64_t v) {
  PutTag(out, field, kWireVarint);
  PutVarint(out, v);
}

void PutFixed64Field(std::string* out, int field, double v) {
  PutTag(out, field, kWireFixed64);
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void PutFixed64Raw(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void PutLenField(std::string* out, int field, const std::string& s) {
  PutTag(out, field, kWireLen);
  PutVarint(out, s.size());
  out->append(s);
}

// Bounds-checked cursor over a binary payload body.
class BinReader {
 public:
  BinReader(const unsigned char* p, size_t n) : p_(p), end_(p + n) {}

  bool AtEnd() const { return p_ == end_; }

  bool ReadVarint(uint64_t* v) {
    uint64_t out = 0;
    int shift = 0;
    while (p_ != end_) {
      const unsigned char b = *p_++;
      if (shift >= 64 || (shift == 63 && (b & 0x7E) != 0)) return false;
      out |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *v = out;
        return true;
      }
      shift += 7;
    }
    return false;  // Truncated mid-varint.
  }

  bool ReadFixed64(double* v) {
    if (end_ - p_ < 8) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(p_[i]) << (8 * i);
    }
    p_ += 8;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool ReadBytes(std::string* s) {
    uint64_t n = 0;
    if (!ReadVarint(&n)) return false;
    if (n > static_cast<uint64_t>(end_ - p_)) return false;
    s->assign(reinterpret_cast<const char*>(p_), static_cast<size_t>(n));
    p_ += n;
    return true;
  }

  bool SkipField(int wire) {
    switch (wire) {
      case kWireVarint: {
        uint64_t scratch;
        return ReadVarint(&scratch);
      }
      case kWireFixed64: {
        double scratch;
        return ReadFixed64(&scratch);
      }
      case kWireLen: {
        uint64_t n = 0;
        if (!ReadVarint(&n)) return false;
        if (n > static_cast<uint64_t>(end_ - p_)) return false;
        p_ += n;
        return true;
      }
      default:
        return false;  // Reserved wire type.
    }
  }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

// Request field numbers (v2 binary). docs/protocol.md mirrors this table.
enum ReqField {
  kReqOp = 1,           // varint: 0 query, 1 stats, 2 ping.
  kReqId = 2,           // len.
  kReqSchema = 3,       // varint: 0 tpch, 1 tpcds.
  kReqData = 4,         // len.
  kReqQuery = 5,        // len.
  kReqScheme = 6,       // len.
  kReqEpsilon = 7,      // fixed64.
  kReqDelta = 8,        // fixed64.
  kReqDeadlineS = 9,    // fixed64.
  kReqSeed = 10,        // varint.
  kReqThreads = 11,     // varint.
  kReqWantRecord = 12,  // varint bool.
  kReqTraceId = 13,     // len.
  kReqTraceParent = 14, // varint.
};

// Response field numbers (v2 binary).
enum RespField {
  kRespId = 1,              // len.
  kRespCode = 2,            // varint ErrorCode.
  kRespError = 3,           // len.
  kRespRetryAfterS = 4,     // fixed64.
  kRespFlags = 5,           // varint: bit0 cache_hit, bit1 timed_out, bit2 pong.
  kRespPreprocessS = 6,     // fixed64.
  kRespSchemeS = 7,         // fixed64.
  kRespTotalSamples = 8,    // varint.
  kRespTiming = 9,          // len: six varints (queue_wait..total micros).
  kRespAnswers = 10,        // len: packed answers (see EncodeAnswers).
  kRespRunRecord = 11,      // len raw JSON.
  kRespMetrics = 12,        // len raw JSON.
  kRespServer = 13,         // len raw JSON.
};

constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();

/// The shortest text that reads back as `n`: a JSON number as it was sent.
std::string NumberText(double n) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), n).ptr);
}

/// Reads `key` of `obj` as an integer in [0, max]: absent or not a
/// number, it reads `fallback`. A JSON number is a double, and one that
/// is fractional or out of range is refused here: casting it would
/// truncate it or be undefined. On failure *error names the field and
/// the number as sent.
bool ReadInteger(const JsonValue& obj, const std::string& key, uint64_t max,
                 uint64_t fallback, uint64_t* out, std::string* error) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || !v->is_number()) {
    *out = fallback;
    return true;
  }
  const double n = v->AsNumber();
  if (n >= 0.0 && n < 0x1p64 && n == std::trunc(n) &&
      static_cast<uint64_t>(n) <= max) {
    *out = static_cast<uint64_t>(n);
    return true;
  }
  *error = "\"" + key + "\" must be an integer in [0, " +
           std::to_string(max) + "], got " + NumberText(n);
  return false;
}

// Semantic request validation shared by the JSON and binary decoders so
// the two codecs accept exactly the same request space (structural
// checks — JSON types, trace object shape — stay codec-local).
bool ValidateRequestFields(Request* out, ErrorCode* code,
                           std::string* error) {
  if (out->op != "query" && out->op != "stats" && out->op != "ping") {
    *code = ErrorCode::kBadRequest;
    *error = "unknown op \"" + out->op + "\"";
    return false;
  }
  if (out->trace_id.size() > kMaxTraceIdBytes) {
    *code = ErrorCode::kBadRequest;
    *error = "trace id longer than " + std::to_string(kMaxTraceIdBytes) +
             " bytes";
    return false;
  }
  if (out->op != "query") return true;
  if (out->schema != "tpch" && out->schema != "tpcds") {
    *code = ErrorCode::kBadRequest;
    *error = "unknown schema \"" + out->schema + "\" (tpch|tpcds)";
    return false;
  }
  if (out->data.empty() || out->query.empty()) {
    *code = ErrorCode::kBadRequest;
    *error = "query requests need \"data\" and \"query\"";
    return false;
  }
  if (!(out->epsilon > 0.0 && out->epsilon < 1.0) ||
      !(out->delta > 0.0 && out->delta < 1.0)) {
    *code = ErrorCode::kBadRequest;
    *error = "epsilon and delta must lie in (0, 1)";
    return false;
  }
  if (out->threads < 1 || out->threads > 256) {
    *code = ErrorCode::kBadRequest;
    *error = "threads must lie in [1, 256]";
    return false;
  }
  return true;
}

}  // namespace

const char* ErrorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kFrameTooLarge: return "frame_too_large";
    case ErrorCode::kBadVersion: return "bad_version";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDraining: return "draining";
  }
  return "?";
}

std::string EncodeFrame(const std::string& payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(payload.size() + 4);
  frame.push_back(static_cast<char>((n >> 24) & 0xFF));
  frame.push_back(static_cast<char>((n >> 16) & 0xFF));
  frame.push_back(static_cast<char>((n >> 8) & 0xFF));
  frame.push_back(static_cast<char>(n & 0xFF));
  frame.append(payload);
  return frame;
}

void FrameDecoder::Append(const char* data, size_t n) {
  buffer_.append(data, n);
}

FrameDecoder::Status FrameDecoder::Next(std::string* payload,
                                        std::string* error) {
  if (poisoned_) {
    if (error != nullptr) *error = "frame stream already poisoned";
    return Status::kError;
  }
  if (buffer_.size() < 4) return Status::kNeedMore;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(buffer_.data());
  const uint32_t n = (static_cast<uint32_t>(p[0]) << 24) |
                     (static_cast<uint32_t>(p[1]) << 16) |
                     (static_cast<uint32_t>(p[2]) << 8) |
                     static_cast<uint32_t>(p[3]);
  if (n == 0) {
    poisoned_ = true;
    if (error != nullptr) *error = "zero-length frame";
    return Status::kError;
  }
  if (n > max_frame_bytes_) {
    poisoned_ = true;
    if (error != nullptr) {
      *error = "frame of " + std::to_string(n) + " bytes exceeds cap of " +
               std::to_string(max_frame_bytes_);
    }
    return Status::kError;
  }
  if (buffer_.size() < 4u + n) return Status::kNeedMore;
  payload->assign(buffer_, 4, n);
  buffer_.erase(0, 4u + n);
  return Status::kFrame;
}

std::string Request::ToJsonPayload() const {
  JsonValue obj = JsonValue::MakeObject();
  obj.Set("v", JsonValue::MakeNumber(version));
  obj.Set("op", JsonValue::MakeString(op));
  if (!id.empty()) obj.Set("id", JsonValue::MakeString(id));
  if (!trace_id.empty()) {
    JsonValue trace = JsonValue::MakeObject();
    trace.Set("id", JsonValue::MakeString(trace_id));
    if (trace_parent != 0) {
      trace.Set("parent",
                JsonValue::MakeNumber(static_cast<double>(trace_parent)));
    }
    obj.Set("trace", std::move(trace));
  }
  if (op == "query") {
    obj.Set("schema", JsonValue::MakeString(schema));
    obj.Set("data", JsonValue::MakeString(data));
    obj.Set("query", JsonValue::MakeString(query));
    obj.Set("scheme", JsonValue::MakeString(scheme));
    obj.Set("epsilon", JsonValue::MakeNumber(epsilon));
    obj.Set("delta", JsonValue::MakeNumber(delta));
    if (deadline_s > 0) obj.Set("deadline_s", JsonValue::MakeNumber(deadline_s));
    obj.Set("seed", JsonValue::MakeNumber(static_cast<double>(seed)));
    if (threads > 1) obj.Set("threads", JsonValue::MakeNumber(threads));
    if (want_record) obj.Set("record", JsonValue::MakeBool(true));
  }
  return obj.Serialize();
}

bool Request::FromJsonPayload(const std::string& payload, Request* out,
                              ErrorCode* code, std::string* error) {
  JsonValue root;
  std::string parse_error;
  if (!JsonValue::Parse(payload, &root, &parse_error) || !root.is_object()) {
    *code = ErrorCode::kBadRequest;
    *error = parse_error.empty() ? "request is not a JSON object"
                                 : parse_error;
    return false;
  }
  const JsonValue* v = root.Find("v");
  if (v == nullptr || !v->is_number()) {
    *code = ErrorCode::kBadVersion;
    *error = "missing protocol version field \"v\"";
    return false;
  }
  uint64_t version = 0;
  if (!ReadInteger(root, "v", kMaxInt, 0, &version, error) ||
      version != kProtocolVersion) {
    *code = ErrorCode::kBadVersion;
    *error = "unsupported protocol version " + NumberText(v->AsNumber()) +
             " (server speaks " + std::to_string(kProtocolVersion) + ")";
    return false;
  }
  out->version = kProtocolVersion;
  out->op = root.GetString("op", "query");
  out->id = root.GetString("id", "");
  const JsonValue* trace = root.Find("trace");
  if (trace != nullptr) {
    if (!trace->is_object()) {
      *code = ErrorCode::kBadRequest;
      *error = "\"trace\" must be an object";
      return false;
    }
    out->trace_id = trace->GetString("id", "");
    if (out->trace_id.empty()) {
      *code = ErrorCode::kBadRequest;
      *error = "\"trace\" needs a non-empty string \"id\"";
      return false;
    }
    if (!ReadInteger(*trace, "parent", kMaxU64, 0, &out->trace_parent,
                     error)) {
      *code = ErrorCode::kBadRequest;
      *error = "trace " + *error;
      return false;
    }
  }
  out->schema = root.GetString("schema", "tpch");
  out->data = root.GetString("data", "");
  out->query = root.GetString("query", "");
  out->scheme = root.GetString("scheme", "KLM");
  out->epsilon = root.GetNumber("epsilon", 0.1);
  out->delta = root.GetNumber("delta", 0.25);
  out->deadline_s = root.GetNumber("deadline_s", 0.0);
  uint64_t threads = 1;
  if (!ReadInteger(root, "seed", kMaxU64, 7, &out->seed, error) ||
      !ReadInteger(root, "threads", kMaxInt, 1, &threads, error)) {
    *code = ErrorCode::kBadRequest;
    return false;
  }
  out->threads = static_cast<int>(threads);
  out->want_record = root.GetBool("record", false);
  return ValidateRequestFields(out, code, error);
}

bool DetectCodec(const std::string& payload, WireCodec* codec) {
  for (const char c : payload) {
    const unsigned char b = static_cast<unsigned char>(c);
    if (b == ' ' || b == '\t' || b == '\r' || b == '\n') continue;
    if (b == '{') {
      *codec = WireCodec::kJson;
      return true;
    }
    if (b == kBinaryMagic) {
      *codec = WireCodec::kBinary;
      return true;
    }
    return false;
  }
  return false;  // Empty or all-whitespace payload.
}

std::string Request::ToBinaryPayload() const {
  std::string out;
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(kKindRequest));
  uint64_t op_code = 0;
  if (op == "stats") op_code = 1;
  else if (op == "ping") op_code = 2;
  PutVarintField(&out, kReqOp, op_code);
  if (!id.empty()) PutLenField(&out, kReqId, id);
  if (!trace_id.empty()) {
    PutLenField(&out, kReqTraceId, trace_id);
    if (trace_parent != 0) PutVarintField(&out, kReqTraceParent, trace_parent);
  }
  if (op == "query") {
    PutVarintField(&out, kReqSchema, schema == "tpcds" ? 1 : 0);
    PutLenField(&out, kReqData, data);
    PutLenField(&out, kReqQuery, query);
    PutLenField(&out, kReqScheme, scheme);
    PutFixed64Field(&out, kReqEpsilon, epsilon);
    PutFixed64Field(&out, kReqDelta, delta);
    if (deadline_s > 0) PutFixed64Field(&out, kReqDeadlineS, deadline_s);
    PutVarintField(&out, kReqSeed, seed);
    if (threads > 1) {
      PutVarintField(&out, kReqThreads, static_cast<uint64_t>(threads));
    }
    if (want_record) PutVarintField(&out, kReqWantRecord, 1);
  }
  return out;
}

std::string Request::ToPayload(WireCodec codec) const {
  return codec == WireCodec::kBinary ? ToBinaryPayload() : ToJsonPayload();
}

bool Request::FromBinaryPayload(const std::string& payload, Request* out,
                                ErrorCode* code, std::string* error) {
  if (payload.size() < 2 ||
      static_cast<unsigned char>(payload[0]) != kBinaryMagic) {
    *code = ErrorCode::kBadRequest;
    *error = "not a binary request payload";
    return false;
  }
  if (static_cast<unsigned char>(payload[1]) != kKindRequest) {
    *code = ErrorCode::kBadRequest;
    *error = "binary payload kind is not request";
    return false;
  }
  out->version = kProtocolVersionBinary;
  BinReader r(reinterpret_cast<const unsigned char*>(payload.data()) + 2,
              payload.size() - 2);
  while (!r.AtEnd()) {
    uint64_t tag = 0;
    if (!r.ReadVarint(&tag)) {
      *code = ErrorCode::kBadRequest;
      *error = "truncated binary request field tag";
      return false;
    }
    const int field = static_cast<int>(tag >> 3);
    const int wire = static_cast<int>(tag & 0x7);
    bool field_ok = true;
    switch (field) {
      case kReqOp: {
        uint64_t v = 0;
        field_ok = wire == kWireVarint && r.ReadVarint(&v);
        if (field_ok) {
          out->op = v == 0 ? "query"
                  : v == 1 ? "stats"
                  : v == 2 ? "ping"
                           : "op#" + std::to_string(v);
        }
        break;
      }
      case kReqId:
        field_ok = wire == kWireLen && r.ReadBytes(&out->id);
        break;
      case kReqSchema: {
        uint64_t v = 0;
        field_ok = wire == kWireVarint && r.ReadVarint(&v);
        if (field_ok) {
          out->schema = v == 0 ? "tpch"
                      : v == 1 ? "tpcds"
                               : "schema#" + std::to_string(v);
        }
        break;
      }
      case kReqData:
        field_ok = wire == kWireLen && r.ReadBytes(&out->data);
        break;
      case kReqQuery:
        field_ok = wire == kWireLen && r.ReadBytes(&out->query);
        break;
      case kReqScheme:
        field_ok = wire == kWireLen && r.ReadBytes(&out->scheme);
        break;
      case kReqEpsilon:
        field_ok = wire == kWireFixed64 && r.ReadFixed64(&out->epsilon);
        break;
      case kReqDelta:
        field_ok = wire == kWireFixed64 && r.ReadFixed64(&out->delta);
        break;
      case kReqDeadlineS:
        field_ok = wire == kWireFixed64 && r.ReadFixed64(&out->deadline_s);
        break;
      case kReqSeed:
        field_ok = wire == kWireVarint && r.ReadVarint(&out->seed);
        break;
      case kReqThreads: {
        uint64_t v = 0;
        field_ok = wire == kWireVarint && r.ReadVarint(&v);
        if (field_ok) {
          out->threads = v > 100000 ? 100000 : static_cast<int>(v);
        }
        break;
      }
      case kReqWantRecord: {
        uint64_t v = 0;
        field_ok = wire == kWireVarint && r.ReadVarint(&v);
        if (field_ok) out->want_record = v != 0;
        break;
      }
      case kReqTraceId:
        field_ok = wire == kWireLen && r.ReadBytes(&out->trace_id);
        break;
      case kReqTraceParent:
        field_ok = wire == kWireVarint && r.ReadVarint(&out->trace_parent);
        break;
      default:
        field_ok = r.SkipField(wire);  // Unknown field: skip, stay readable.
        break;
    }
    if (!field_ok) {
      *code = ErrorCode::kBadRequest;
      *error = "malformed binary request field " + std::to_string(field);
      return false;
    }
  }
  return ValidateRequestFields(out, code, error);
}

bool Request::FromPayload(const std::string& payload, Request* out,
                          WireCodec* codec, ErrorCode* code,
                          std::string* error) {
  if (!DetectCodec(payload, codec)) {
    *codec = WireCodec::kJson;  // Error replies fall back to JSON.
    *code = ErrorCode::kBadRequest;
    *error = "unrecognized payload codec";
    return false;
  }
  return *codec == WireCodec::kBinary
             ? FromBinaryPayload(payload, out, code, error)
             : FromJsonPayload(payload, out, code, error);
}

std::string Response::ToJsonPayload() const {
  // Hand-assembled so the raw embedded objects (run record, metrics) can
  // be spliced in without reparsing them.
  std::string out = "{\"v\":" + std::to_string(version);
  if (!id.empty()) {
    out += ",\"id\":\"";
    AppendJsonEscaped(&out, id);
    out += '"';
  }
  if (code != ErrorCode::kOk) {
    out += ",\"status\":\"error\",\"code\":" +
           std::to_string(static_cast<int>(code));
    out += ",\"code_name\":\"" + std::string(ErrorCodeName(code)) + "\"";
    out += ",\"error\":\"";
    AppendJsonEscaped(&out, error);
    out += '"';
    if (retry_after_s > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.3f", retry_after_s);
      out += ",\"retry_after_s\":" + std::string(buf);
    }
    out += "}";
    return out;
  }
  out += ",\"status\":\"ok\"";
  if (pong) {
    out += ",\"pong\":true}";
    return out;
  }
  if (!metrics_json.empty() || !server_json.empty()) {
    if (!metrics_json.empty()) out += ",\"metrics\":" + metrics_json;
    if (!server_json.empty()) out += ",\"server\":" + server_json;
    out += "}";
    return out;
  }
  out += ",\"cache\":\"" + std::string(cache_hit ? "hit" : "miss") + "\"";
  out += ",\"timed_out\":" + std::string(timed_out ? "true" : "false");
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"preprocess_seconds\":%.9g",
                preprocess_seconds);
  out += buf;
  std::snprintf(buf, sizeof(buf), ",\"scheme_seconds\":%.9g", scheme_seconds);
  out += buf;
  out += ",\"total_samples\":" + std::to_string(total_samples);
  if (timing.recorded) {
    out += ",\"timing\":{\"queue_wait_micros\":" +
           std::to_string(timing.queue_wait_micros);
    out += ",\"cache_micros\":" + std::to_string(timing.cache_micros);
    out += ",\"preprocess_micros\":" + std::to_string(timing.preprocess_micros);
    out += ",\"sample_micros\":" + std::to_string(timing.sample_micros);
    out += ",\"encode_micros\":" + std::to_string(timing.encode_micros);
    out += ",\"total_micros\":" + std::to_string(timing.total_micros) + "}";
  }
  out += ",\"answers\":[";
  bool first = true;
  for (const ResponseAnswer& a : answers) {
    if (!first) out += ",";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", a.frequency);
    out += "{\"tuple\":\"";
    AppendJsonEscaped(&out, a.tuple);
    out += "\",\"frequency\":";
    out += buf;
    out += '}';
  }
  out += "]";
  if (!run_record_json.empty()) out += ",\"run_record\":" + run_record_json;
  out += "}";
  return out;
}

bool Response::FromJsonPayload(const std::string& payload, Response* out,
                               std::string* error) {
  JsonValue root;
  if (!JsonValue::Parse(payload, &root, error) || !root.is_object()) {
    if (error != nullptr && error->empty()) {
      *error = "response is not a JSON object";
    }
    return false;
  }
  out->version = static_cast<int>(root.GetNumber("v", 0));
  out->id = root.GetString("id", "");
  const std::string status = root.GetString("status", "");
  if (status == "error") {
    out->code = static_cast<ErrorCode>(
        static_cast<int>(root.GetNumber("code", 500)));
    out->error = root.GetString("error", "unknown error");
    out->retry_after_s = root.GetNumber("retry_after_s", 0.0);
    return true;
  }
  if (status != "ok") {
    if (error != nullptr) *error = "response has no status field";
    return false;
  }
  out->code = ErrorCode::kOk;
  out->pong = root.GetBool("pong", false);
  out->cache_hit = root.GetString("cache", "miss") == "hit";
  out->timed_out = root.GetBool("timed_out", false);
  out->preprocess_seconds = root.GetNumber("preprocess_seconds", 0.0);
  out->scheme_seconds = root.GetNumber("scheme_seconds", 0.0);
  std::string bad;
  if (!ReadInteger(root, "total_samples", kMaxU64, 0, &out->total_samples,
                   &bad)) {
    if (error != nullptr) *error = bad;
    return false;
  }
  const JsonValue* answers = root.Find("answers");
  if (answers != nullptr && answers->is_array()) {
    for (const JsonValue& a : answers->AsArray()) {
      ResponseAnswer answer;
      answer.tuple = a.GetString("tuple", "");
      answer.frequency = a.GetNumber("frequency", 0.0);
      out->answers.push_back(std::move(answer));
    }
  }
  const JsonValue* timing = root.Find("timing");
  if (timing != nullptr && timing->is_object()) {
    out->timing.recorded = true;
    PhaseTiming& t = out->timing;
    const std::pair<const char*, uint64_t*> fields[] = {
        {"queue_wait_micros", &t.queue_wait_micros},
        {"cache_micros", &t.cache_micros},
        {"preprocess_micros", &t.preprocess_micros},
        {"sample_micros", &t.sample_micros},
        {"encode_micros", &t.encode_micros},
        {"total_micros", &t.total_micros}};
    for (const auto& [key, field] : fields) {
      if (!ReadInteger(*timing, key, kMaxU64, 0, field, &bad)) {
        if (error != nullptr) *error = "timing " + bad;
        return false;
      }
    }
  }
  const JsonValue* record = root.Find("run_record");
  if (record != nullptr) out->run_record_json = record->Serialize();
  const JsonValue* metrics = root.Find("metrics");
  if (metrics != nullptr) out->metrics_json = metrics->Serialize();
  const JsonValue* server = root.Find("server");
  if (server != nullptr) out->server_json = server->Serialize();
  return true;
}

std::string Response::ToBinaryPayload() const {
  std::string out;
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(kKindResponse));
  if (!id.empty()) PutLenField(&out, kRespId, id);
  if (code != ErrorCode::kOk) {
    PutVarintField(&out, kRespCode, static_cast<uint64_t>(code));
    PutLenField(&out, kRespError, error);
    if (retry_after_s > 0) {
      PutFixed64Field(&out, kRespRetryAfterS, retry_after_s);
    }
    return out;
  }
  uint64_t flags = 0;
  if (cache_hit) flags |= 1;
  if (timed_out) flags |= 2;
  if (pong) flags |= 4;
  if (flags != 0) PutVarintField(&out, kRespFlags, flags);
  if (pong) return out;
  if (!metrics_json.empty() || !server_json.empty()) {
    if (!metrics_json.empty()) PutLenField(&out, kRespMetrics, metrics_json);
    if (!server_json.empty()) PutLenField(&out, kRespServer, server_json);
    return out;
  }
  PutFixed64Field(&out, kRespPreprocessS, preprocess_seconds);
  PutFixed64Field(&out, kRespSchemeS, scheme_seconds);
  PutVarintField(&out, kRespTotalSamples, total_samples);
  if (timing.recorded) {
    std::string t;
    PutVarint(&t, timing.queue_wait_micros);
    PutVarint(&t, timing.cache_micros);
    PutVarint(&t, timing.preprocess_micros);
    PutVarint(&t, timing.sample_micros);
    PutVarint(&t, timing.encode_micros);
    PutVarint(&t, timing.total_micros);
    PutLenField(&out, kRespTiming, t);
  }
  // Answers ride as one packed block: varint count, then count
  // length-delimited tuple strings, then count fixed64 frequencies.
  std::string packed;
  PutVarint(&packed, answers.size());
  for (const ResponseAnswer& a : answers) {
    PutVarint(&packed, a.tuple.size());
    packed.append(a.tuple);
  }
  for (const ResponseAnswer& a : answers) PutFixed64Raw(&packed, a.frequency);
  PutLenField(&out, kRespAnswers, packed);
  if (!run_record_json.empty()) {
    PutLenField(&out, kRespRunRecord, run_record_json);
  }
  return out;
}

std::string Response::ToPayload(WireCodec codec) const {
  return codec == WireCodec::kBinary ? ToBinaryPayload() : ToJsonPayload();
}

bool Response::FromBinaryPayload(const std::string& payload, Response* out,
                                 std::string* error) {
  if (payload.size() < 2 ||
      static_cast<unsigned char>(payload[0]) != kBinaryMagic ||
      static_cast<unsigned char>(payload[1]) != kKindResponse) {
    if (error != nullptr) *error = "not a binary response payload";
    return false;
  }
  out->version = kProtocolVersionBinary;
  out->code = ErrorCode::kOk;
  BinReader r(reinterpret_cast<const unsigned char*>(payload.data()) + 2,
              payload.size() - 2);
  while (!r.AtEnd()) {
    uint64_t tag = 0;
    if (!r.ReadVarint(&tag)) {
      if (error != nullptr) *error = "truncated binary response field tag";
      return false;
    }
    const int field = static_cast<int>(tag >> 3);
    const int wire = static_cast<int>(tag & 0x7);
    bool field_ok = true;
    switch (field) {
      case kRespId:
        field_ok = wire == kWireLen && r.ReadBytes(&out->id);
        break;
      case kRespCode: {
        uint64_t v = 0;
        field_ok = wire == kWireVarint && r.ReadVarint(&v);
        if (field_ok) out->code = static_cast<ErrorCode>(v);
        break;
      }
      case kRespError:
        field_ok = wire == kWireLen && r.ReadBytes(&out->error);
        break;
      case kRespRetryAfterS:
        field_ok = wire == kWireFixed64 && r.ReadFixed64(&out->retry_after_s);
        break;
      case kRespFlags: {
        uint64_t v = 0;
        field_ok = wire == kWireVarint && r.ReadVarint(&v);
        if (field_ok) {
          out->cache_hit = (v & 1) != 0;
          out->timed_out = (v & 2) != 0;
          out->pong = (v & 4) != 0;
        }
        break;
      }
      case kRespPreprocessS:
        field_ok =
            wire == kWireFixed64 && r.ReadFixed64(&out->preprocess_seconds);
        break;
      case kRespSchemeS:
        field_ok = wire == kWireFixed64 && r.ReadFixed64(&out->scheme_seconds);
        break;
      case kRespTotalSamples:
        field_ok = wire == kWireVarint && r.ReadVarint(&out->total_samples);
        break;
      case kRespTiming: {
        std::string t;
        field_ok = wire == kWireLen && r.ReadBytes(&t);
        if (field_ok) {
          BinReader tr(reinterpret_cast<const unsigned char*>(t.data()),
                       t.size());
          field_ok = tr.ReadVarint(&out->timing.queue_wait_micros) &&
                     tr.ReadVarint(&out->timing.cache_micros) &&
                     tr.ReadVarint(&out->timing.preprocess_micros) &&
                     tr.ReadVarint(&out->timing.sample_micros) &&
                     tr.ReadVarint(&out->timing.encode_micros) &&
                     tr.ReadVarint(&out->timing.total_micros);
          out->timing.recorded = field_ok;
        }
        break;
      }
      case kRespAnswers: {
        std::string packed;
        field_ok = wire == kWireLen && r.ReadBytes(&packed);
        if (field_ok) {
          BinReader ar(reinterpret_cast<const unsigned char*>(packed.data()),
                       packed.size());
          uint64_t count = 0;
          field_ok = ar.ReadVarint(&count) && count <= packed.size();
          if (field_ok) {
            out->answers.clear();
            out->answers.reserve(static_cast<size_t>(count));
            for (uint64_t i = 0; field_ok && i < count; ++i) {
              ResponseAnswer a;
              field_ok = ar.ReadBytes(&a.tuple);
              if (field_ok) out->answers.push_back(std::move(a));
            }
            for (size_t i = 0; field_ok && i < out->answers.size(); ++i) {
              field_ok = ar.ReadFixed64(&out->answers[i].frequency);
            }
          }
        }
        break;
      }
      case kRespRunRecord:
        field_ok = wire == kWireLen && r.ReadBytes(&out->run_record_json);
        break;
      case kRespMetrics:
        field_ok = wire == kWireLen && r.ReadBytes(&out->metrics_json);
        break;
      case kRespServer:
        field_ok = wire == kWireLen && r.ReadBytes(&out->server_json);
        break;
      default:
        field_ok = r.SkipField(wire);
        break;
    }
    if (!field_ok) {
      if (error != nullptr) {
        *error = "malformed binary response field " + std::to_string(field);
      }
      return false;
    }
  }
  return true;
}

bool Response::FromPayload(const std::string& payload, Response* out,
                           std::string* error) {
  WireCodec codec = WireCodec::kJson;
  if (!DetectCodec(payload, &codec)) {
    if (error != nullptr) *error = "unrecognized payload codec";
    return false;
  }
  return codec == WireCodec::kBinary ? FromBinaryPayload(payload, out, error)
                                     : FromJsonPayload(payload, out, error);
}

Response Response::MakeError(ErrorCode code, const std::string& message,
                             const std::string& id) {
  Response r;
  r.code = code;
  r.error = message;
  r.id = id;
  return r;
}

}  // namespace cqa::serve
