// serve/protocol — the cqad wire protocol: length-prefixed frames with
// explicit versioning and HTTP-inspired error codes. This header is
// the single source of truth for the on-wire contract; the narrative
// reference lives in docs/protocol.md and the two must agree (lint
// check 7 ties every flag and field to the docs).
//
// Frame layout: a 4-byte big-endian unsigned payload length, then that
// many payload bytes. Length 0 and lengths above the negotiated maximum
// are protocol errors, not just bad requests: the receiver cannot
// resynchronize after them, so both sides must close the connection.
//
// Two payload codecs share that outer framing, distinguished by the
// payload's first byte: '{' opens the v1 UTF-8 JSON object codec, and
// kBinaryMagic (0x02) opens the v2 tagged binary codec (varint /
// fixed64 / length-delimited fields, packed answer arrays). Codec
// choice is per request; the server always answers in the codec the
// request arrived in.
#ifndef CQABENCH_SERVE_PROTOCOL_H_
#define CQABENCH_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/json.h"

namespace cqa::serve {

/// Protocol version carried in every request's "v" field. JSON payloads
/// must say 1 and binary payloads must say 2; the server rejects any
/// other value with kBadVersion. Versioning policy (when the number
/// bumps, what stays compatible) is documented in docs/protocol.md.
inline constexpr int kProtocolVersion = 1;

/// Version spoken by the tagged binary codec. A binary payload *is* the
/// version negotiation: its leading kBinaryMagic byte cannot appear at
/// the start of a JSON object, so the decoder dispatches per payload.
inline constexpr int kProtocolVersionBinary = 2;

/// First payload byte of every binary (v2) frame. 0x02 is illegal as the
/// first byte of JSON text, so codec detection needs no extra header.
inline constexpr unsigned char kBinaryMagic = 0x02;

/// Payload codec of one frame, detected from its first byte.
enum class WireCodec {
  kJson = 1,    // '{' — v1 UTF-8 JSON object.
  kBinary = 2,  // kBinaryMagic — v2 tagged binary.
};

/// Detects the codec from the payload's first byte (leading JSON
/// whitespace is tolerated). Returns false for an empty payload or an
/// unrecognizable first byte; the server answers kBadRequest in JSON.
bool DetectCodec(const std::string& payload, WireCodec* codec);

/// Default cap on one frame's payload. Requests are tiny; responses carry
/// answer lists and run records, which stay far below this for any
/// benchmark-scale database.
inline constexpr size_t kDefaultMaxFrameBytes = 8u * 1024u * 1024u;

/// Response status codes, HTTP-inspired so readers can guess semantics:
/// 4xx = the request is at fault (retrying unchanged will fail again),
/// 5xx = the server could not serve it (retrying may succeed).
enum class ErrorCode : int {
  kOk = 0,
  kBadRequest = 400,       // Malformed JSON, missing/invalid fields.
  kNotFound = 404,         // Data directory missing or unreadable.
  kDeadlineExceeded = 408, // Deadline expired while queued for admission.
  kFrameTooLarge = 413,    // Payload length above the server's cap.
  kBadVersion = 426,       // "v" is not kProtocolVersion.
  kInternal = 500,         // Unexpected server-side failure.
  kOverloaded = 503,       // Admission queue full; retry_after_s is set.
  kDraining = 504,         // Server is shutting down; do not retry here.
};

const char* ErrorCodeName(ErrorCode code);

/// Maximum accepted length of a client-chosen trace id. Long ids are a
/// kBadRequest, not a truncation: silently shortened ids would break the
/// client-side join between its own records and server spans/logs.
inline constexpr size_t kMaxTraceIdBytes = 128;

/// Per-request phase latency breakdown, all in integer microseconds.
/// Attached to ok query responses as the "timing" object when the server
/// recorded it. The phases partition the server-side handling time:
///   queue_wait  — waiting in the admission queue until an executor
///                 dequeues the request,
///   cache       — synopsis-cache lookup overhead (lock + single-flight
///                 coordination, excluding the build itself),
///   preprocess  — database load + query parse + synopsis build (near
///                 zero on a cache hit),
///   sample      — scheme execution (the sampling/estimation loop),
///   encode      — answer assembly + run-record rendering.
/// total_micros covers HandleFrame from parse to encoded response, so
/// the phases sum to slightly below it (residual = dispatch glue).
struct PhaseTiming {
  bool recorded = false;  // False: no "timing" object on the wire.
  uint64_t queue_wait_micros = 0;
  uint64_t cache_micros = 0;
  uint64_t preprocess_micros = 0;
  uint64_t sample_micros = 0;
  uint64_t encode_micros = 0;
  uint64_t total_micros = 0;

  /// Sum of the five phase buckets (excludes total_micros).
  uint64_t PhaseSumMicros() const {
    return queue_wait_micros + cache_micros + preprocess_micros +
           sample_micros + encode_micros;
  }
};

/// Encodes one frame: 4-byte big-endian length followed by the payload.
std::string EncodeFrame(const std::string& payload);

/// Incremental frame reassembly over an arbitrary byte stream (socket
/// reads land in chunks that need not align with frames).
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Feeds raw bytes into the reassembly buffer.
  void Append(const char* data, size_t n);

  enum class Status {
    kNeedMore,  // No complete frame buffered yet.
    kFrame,     // *payload holds the next frame's payload.
    kError,     // Unrecoverable framing violation; close the connection.
  };

  /// Pops the next complete frame, if any. After kError the decoder stays
  /// poisoned: the stream has no trustworthy frame boundary anymore.
  Status Next(std::string* payload, std::string* error);

  /// Bytes buffered but not yet consumed (diagnostics/tests).
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  size_t max_frame_bytes_;
  std::string buffer_;
  bool poisoned_ = false;
};

/// A decoded client request. One struct covers all operations; fields
/// beyond (version, op, id) matter only to op == "query".
struct Request {
  int version = kProtocolVersion;
  std::string op = "query";  // "query" | "stats" | "ping".
  std::string id;            // Opaque; echoed back verbatim.

  // Query fields (defaults match cqa_cli run).
  std::string schema = "tpch";  // "tpch" | "tpcds".
  std::string data;             // .tbl directory path on the server host.
  std::string query;            // CQ text, e.g. "Q(N) :- employee(I, N, D).".
  std::string scheme = "KLM";   // Natural | KL | KLM | Cover.
  double epsilon = 0.1;
  double delta = 0.25;
  double deadline_s = 0.0;      // <= 0: use the server's default deadline.
  uint64_t seed = 7;
  int threads = 1;              // Scheme-phase worker threads.
  bool want_record = false;     // Attach the obs RunRecord to the response.

  // Optional wire-propagated trace context ("trace" object, any op).
  // A non-empty trace_id makes the server stamp every span it records
  // for this request with the id and tag the access-log line with it.
  std::string trace_id;         // Client-chosen; <= kMaxTraceIdBytes.
  uint64_t trace_parent = 0;    // Client-side parent span id; 0 = none.

  /// Serializes as one request frame payload (client side).
  std::string ToJsonPayload() const;

  /// Serializes with the v2 tagged binary codec (magic + kind header,
  /// then tag-prefixed fields; layout table in docs/protocol.md).
  std::string ToBinaryPayload() const;

  /// Serializes with the given codec.
  std::string ToPayload(WireCodec codec) const;

  /// Decodes a request payload. On failure returns false with *code set
  /// to the rejection the server should answer with and *error to a
  /// human-readable reason.
  static bool FromJsonPayload(const std::string& payload, Request* out,
                              ErrorCode* code, std::string* error);

  /// Decodes a v2 binary request payload; same failure contract as the
  /// JSON decoder, and identical semantic validation of the fields.
  static bool FromBinaryPayload(const std::string& payload, Request* out,
                                ErrorCode* code, std::string* error);

  /// Detects the codec and dispatches to the matching decoder. Sets
  /// *codec to the detected codec whenever detection itself succeeds,
  /// so error replies can be encoded in the codec the client spoke.
  static bool FromPayload(const std::string& payload, Request* out,
                          WireCodec* codec, ErrorCode* code,
                          std::string* error);
};

/// One candidate answer in a query response.
struct ResponseAnswer {
  std::string tuple;        // TupleToString rendering, e.g. "(1, 'Bob')".
  double frequency = 0.0;   // Approximated relative frequency.
};

/// A decoded server response; the union of all operations' reply fields.
struct Response {
  int version = kProtocolVersion;
  std::string id;
  ErrorCode code = ErrorCode::kOk;
  std::string error;          // Non-empty iff code != kOk.
  double retry_after_s = 0.0; // Set with kOverloaded.

  // op == "query" results.
  std::vector<ResponseAnswer> answers;
  bool cache_hit = false;     // Synopsis cache hit (Preprocess skipped).
  bool timed_out = false;     // Deadline expired; answers are partial.
  double preprocess_seconds = 0.0;
  double scheme_seconds = 0.0;
  uint64_t total_samples = 0;
  std::string run_record_json;  // Raw JSON object; empty unless requested.
  PhaseTiming timing;           // Serialized iff timing.recorded.

  // op == "stats": the server's metrics registry dump plus server state.
  std::string metrics_json;  // Raw JSON object.
  std::string server_json;   // Raw JSON object.

  // op == "ping".
  bool pong = false;

  bool ok() const { return code == ErrorCode::kOk; }

  std::string ToJsonPayload() const;

  /// v2 binary encoding; the embedded raw-JSON blobs (run record,
  /// metrics, server state) ride along as length-delimited strings.
  std::string ToBinaryPayload() const;

  /// Serializes with the given codec (the codec the request arrived in).
  std::string ToPayload(WireCodec codec) const;

  static bool FromJsonPayload(const std::string& payload, Response* out,
                              std::string* error);

  /// Decodes a v2 binary response payload.
  static bool FromBinaryPayload(const std::string& payload, Response* out,
                                std::string* error);

  /// Detects the codec and dispatches to the matching decoder.
  static bool FromPayload(const std::string& payload, Response* out,
                          std::string* error);

  /// Shorthand for error replies.
  static Response MakeError(ErrorCode code, const std::string& message,
                            const std::string& id = std::string());
};

}  // namespace cqa::serve

#endif  // CQABENCH_SERVE_PROTOCOL_H_
