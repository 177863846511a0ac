// Wire protocol of the quickview serving layer: length-prefixed binary
// frames carrying typed RPCs. Layout (all integers big-endian, matching
// the pagestore codec the payload encoders reuse):
//
//   +--------+---------+--------+-------+------------+-------------+
//   | magic  | version | opcode | flags | request id | payload len |
//   | u32    | u16     | u8     | u8    | u64        | u32         |
//   +--------+---------+--------+-------+------------+-------------+
//   | payload (payload len bytes)                                  |
//   +--------------------------------------------------------------+
//   | checksum u32  (FNV-1a over header-after-magic + payload)     |
//   +--------------------------------------------------------------+
//
// 20-byte header, 4-byte trailer. A response frame echoes the request's
// opcode and request id; the kFlagError bit says the payload is an
// encoded Status instead of the opcode's success payload. Status codes
// cross the wire through an explicit stable table (StatusCodeToWire /
// WireStatusCode) so reordering the C++ enum can never silently change
// the protocol.
//
// Decoding is incremental: DecodeFrame on a partial buffer reports
// kNeedMore (read more bytes, try again); corrupt input — bad magic,
// bad version, oversized payload, checksum mismatch — is a ParseError,
// after which the connection is poisoned and should be closed.
#ifndef QUICKVIEW_SERVER_PROTOCOL_H_
#define QUICKVIEW_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/view_search_engine.h"

namespace quickview::server {

inline constexpr uint32_t kFrameMagic = 0x51565250;  // "QVRP"
/// Bumped whenever an existing opcode's payload changes shape, so a peer
/// speaking another version fails at the frame level (ParseError)
/// instead of misreading a reply.
inline constexpr uint16_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderSize = 20;
inline constexpr size_t kFrameTrailerSize = 4;
/// Hard cap on a single frame's payload; anything larger is corrupt (or
/// hostile) input, rejected before allocation.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

/// Frame flags. kFlagError marks a response whose payload is an encoded
/// Status (EncodeStatusPayload) rather than the opcode's success shape.
/// kFlagTrace on a request asks the server to trace it; on a SUCCESS
/// response it marks a traced payload: `trace len u32 | trace bytes |
/// inner payload` (EncodeTracedPayload / SplitTracedPayload), where the
/// trace bytes are the obs::Trace::Serialize breakdown. An error
/// response never carries a trace.
inline constexpr uint8_t kFlagError = 0x01;
inline constexpr uint8_t kFlagTrace = 0x02;

enum class Opcode : uint8_t {
  kRegisterView = 1,
  kSearch = 2,
  kOpenCursor = 3,
  kFetchNext = 4,
  kCloseCursor = 5,
  kInsert = 6,
  kRemove = 7,
  kStats = 8,
};
inline constexpr uint8_t kMinOpcode = 1;
inline constexpr uint8_t kMaxOpcode = 8;
/// Opcode values are dense 1..kMaxOpcode; kOpcodeSlots sizes per-opcode
/// arrays indexed by raw opcode value.
inline constexpr size_t kOpcodeSlots = kMaxOpcode + 1;

const char* OpcodeName(Opcode op);

/// One decoded frame (or one to encode). `opcode` is validated to be a
/// known Opcode by DecodeFrame; `flags` bits other than kFlagError and
/// kFlagTrace are reserved and must be zero.
struct Frame {
  Opcode opcode = Opcode::kStats;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  std::string payload;
};

/// Appends the encoded frame (header + payload + checksum) to `out`.
void EncodeFrame(const Frame& frame, std::string* out);

enum class FrameDecode {
  kFrame,     // one complete frame decoded; *consumed bytes were used
  kNeedMore,  // `in` is a valid prefix of a frame; read more and retry
};

/// Decodes the frame at the front of `in`. On kFrame, `*frame` holds the
/// decoded frame and `*consumed` its full encoded size. ParseError on
/// corrupt input (bad magic/version/opcode/flags, payload over
/// kMaxFramePayload, checksum mismatch).
Result<FrameDecode> DecodeFrame(std::string_view in, Frame* frame,
                                size_t* consumed);

/// Traced-response payload (kFlagTrace on a success frame):
/// `trace len u32 | trace bytes | inner payload`.
void EncodeTracedPayload(std::string_view trace, std::string_view inner,
                         std::string* out);
struct TracedPayload {
  std::string trace;
  std::string inner;
};
Result<TracedPayload> SplitTracedPayload(std::string_view payload);

// ---------------------------------------------------------------------------
// Status on the wire. The numeric mapping is part of the protocol and
// frozen; new StatusCode members get NEW wire numbers here, appended.

uint16_t StatusCodeToWire(StatusCode code);
/// ParseError result for unknown wire values.
Result<StatusCode> WireStatusCode(uint16_t wire);

/// wire code u16 | message len u32 | message bytes.
void EncodeStatusPayload(const Status& status, std::string* out);
/// Fills `*decoded` (which may itself be any code, including kOk);
/// returns ParseError when the payload is corrupt.
Status DecodeStatusPayload(std::string_view payload, Status* decoded);

// ---------------------------------------------------------------------------
// RPC payloads. Each request/response struct has an Encode (append to
// string) and Decode (whole payload -> struct, ParseError on truncated
// or trailing bytes). Success responses for kRegisterView, kCloseCursor,
// kInsert and kRemove have empty payloads. A kStats request has an empty
// payload and its success payload is plain text: the server's metrics
// exposition followed by its slow-query log as comment lines
// (Server::StatsText), read back with obs::ExpositionValue — so it has
// no codec here.

struct RegisterViewRequest {
  std::string name;
  std::string view_text;
};
void Encode(const RegisterViewRequest& req, std::string* out);
Result<RegisterViewRequest> DecodeRegisterViewRequest(std::string_view payload);

/// Shared by kSearch (drain to a SearchResponse) and kOpenCursor (open a
/// server-side cursor). deadline_ms == 0 means no deadline.
struct SearchRpcRequest {
  std::string view;
  std::vector<std::string> keywords;
  uint32_t top_k = 10;
  bool conjunctive = false;
  int32_t shard = -1;
  uint64_t deadline_ms = 0;
};
void Encode(const SearchRpcRequest& req, std::string* out);
Result<SearchRpcRequest> DecodeSearchRpcRequest(std::string_view payload);

/// kSearch success payload: the full engine::SearchResponse — hits with
/// bit-exact scores (doubles cross the wire as their IEEE-754 bit
/// patterns), per-module timings, and pipeline counters.
void Encode(const engine::SearchResponse& resp, std::string* out);
Result<engine::SearchResponse> DecodeSearchResponse(std::string_view payload);

struct OpenCursorResponse {
  uint64_t cursor_id = 0;
  /// Matches ResultCursor: total ranked matches and hits still pending.
  uint64_t matching = 0;
  uint64_t pending = 0;
};
void Encode(const OpenCursorResponse& resp, std::string* out);
Result<OpenCursorResponse> DecodeOpenCursorResponse(std::string_view payload);

struct FetchNextRequest {
  uint64_t cursor_id = 0;
  uint32_t count = 0;
};
void Encode(const FetchNextRequest& req, std::string* out);
Result<FetchNextRequest> DecodeFetchNextRequest(std::string_view payload);

struct FetchNextResponse {
  std::vector<engine::SearchHit> hits;
  bool done = false;
};
void Encode(const FetchNextResponse& resp, std::string* out);
Result<FetchNextResponse> DecodeFetchNextResponse(std::string_view payload);

struct CloseCursorRequest {
  uint64_t cursor_id = 0;
};
void Encode(const CloseCursorRequest& req, std::string* out);
Result<CloseCursorRequest> DecodeCloseCursorRequest(std::string_view payload);

struct InsertRequest {
  std::string name;
  std::string xml_text;
};
void Encode(const InsertRequest& req, std::string* out);
Result<InsertRequest> DecodeInsertRequest(std::string_view payload);

struct RemoveRequest {
  std::string name;
};
void Encode(const RemoveRequest& req, std::string* out);
Result<RemoveRequest> DecodeRemoveRequest(std::string_view payload);

}  // namespace quickview::server

#endif  // QUICKVIEW_SERVER_PROTOCOL_H_
