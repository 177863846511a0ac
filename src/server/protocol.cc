#include "server/protocol.h"

#include <bit>
#include <cstddef>

#include "pagestore/page.h"

namespace quickview::server {
namespace {

using pagestore::AppendU16;
using pagestore::AppendU32;
using pagestore::AppendU64;
using pagestore::ReadU16;
using pagestore::ReadU32;
using pagestore::ReadU64;

/// FNV-1a over the frame header after the magic, plus the payload — same
/// constants as pagestore::PageChecksum, so a corrupt frame surfaces as
/// an error, never as a wrong answer.
uint32_t FrameChecksum(uint8_t opcode, uint8_t flags, uint64_t request_id,
                       std::string_view payload) {
  uint32_t h = 2166136261u;
  auto mix = [&h](uint8_t byte) {
    h ^= byte;
    h *= 16777619u;
  };
  mix(static_cast<uint8_t>((kProtocolVersion >> 8) & 0xff));
  mix(static_cast<uint8_t>(kProtocolVersion & 0xff));
  mix(opcode);
  mix(flags);
  for (int shift = 56; shift >= 0; shift -= 8) {
    mix(static_cast<uint8_t>((request_id >> shift) & 0xff));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    mix(static_cast<uint8_t>((payload.size() >> shift) & 0xff));
  }
  for (char c : payload) mix(static_cast<uint8_t>(c));
  return h;
}

void AppendString(std::string* out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool ReadString(std::string_view in, size_t* pos, std::string* s) {
  uint32_t len = 0;
  if (!ReadU32(in, pos, &len)) return false;
  if (in.size() - *pos < len) return false;
  s->assign(in.substr(*pos, len));
  *pos += len;
  return true;
}

/// Doubles cross the wire as their IEEE-754 bit patterns — decode
/// returns the bit-identical value, which the server_test parity
/// assertions rely on.
void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

bool ReadF64(std::string_view in, size_t* pos, double* v) {
  uint64_t bits = 0;
  if (!ReadU64(in, pos, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated ") + what + " payload");
}

Status Trailing(const char* what) {
  return Status::ParseError(std::string("trailing bytes after ") + what +
                            " payload");
}

void AppendHit(std::string* out, const engine::SearchHit& hit) {
  AppendF64(out, hit.score);
  AppendU32(out, static_cast<uint32_t>(hit.tf.size()));
  for (uint64_t tf : hit.tf) AppendU64(out, tf);
  AppendU64(out, hit.byte_length);
  AppendString(out, hit.xml);
}

bool ReadHit(std::string_view in, size_t* pos, engine::SearchHit* hit) {
  uint32_t tf_count = 0;
  if (!ReadF64(in, pos, &hit->score)) return false;
  if (!ReadU32(in, pos, &tf_count)) return false;
  // Bound the reservation by what the payload could actually hold.
  if (in.size() - *pos < static_cast<size_t>(tf_count) * 8) return false;
  hit->tf.clear();
  hit->tf.reserve(tf_count);
  for (uint32_t i = 0; i < tf_count; ++i) {
    uint64_t tf = 0;
    if (!ReadU64(in, pos, &tf)) return false;
    hit->tf.push_back(tf);
  }
  if (!ReadU64(in, pos, &hit->byte_length)) return false;
  return ReadString(in, pos, &hit->xml);
}

void AppendSearchStats(std::string* out, const engine::SearchStats& s) {
  AppendU64(out, s.view_results);
  AppendU64(out, s.matching_results);
  AppendU64(out, s.pdt.ids_processed);
  AppendU64(out, s.pdt.nodes_emitted);
  AppendU64(out, s.pdt.peak_ct_nodes);
  AppendU64(out, s.pdt.index_probes);
  AppendU64(out, s.pdt.pdt_bytes);
  AppendU64(out, s.store_fetches);
  AppendU64(out, s.store_bytes);
  AppendU64(out, s.pages_read);
  AppendU64(out, s.buffer_hits);
  AppendU64(out, s.view_bytes);
}

bool ReadSearchStats(std::string_view in, size_t* pos,
                     engine::SearchStats* s) {
  uint64_t view_results = 0;
  uint64_t matching_results = 0;
  if (!ReadU64(in, pos, &view_results)) return false;
  if (!ReadU64(in, pos, &matching_results)) return false;
  s->view_results = static_cast<size_t>(view_results);
  s->matching_results = static_cast<size_t>(matching_results);
  return ReadU64(in, pos, &s->pdt.ids_processed) &&
         ReadU64(in, pos, &s->pdt.nodes_emitted) &&
         ReadU64(in, pos, &s->pdt.peak_ct_nodes) &&
         ReadU64(in, pos, &s->pdt.index_probes) &&
         ReadU64(in, pos, &s->pdt.pdt_bytes) &&
         ReadU64(in, pos, &s->store_fetches) &&
         ReadU64(in, pos, &s->store_bytes) &&
         ReadU64(in, pos, &s->pages_read) &&
         ReadU64(in, pos, &s->buffer_hits) &&
         ReadU64(in, pos, &s->view_bytes);
}

}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kRegisterView:
      return "RegisterView";
    case Opcode::kSearch:
      return "Search";
    case Opcode::kOpenCursor:
      return "OpenCursor";
    case Opcode::kFetchNext:
      return "FetchNext";
    case Opcode::kCloseCursor:
      return "CloseCursor";
    case Opcode::kInsert:
      return "Insert";
    case Opcode::kRemove:
      return "Remove";
    case Opcode::kStats:
      return "Stats";
  }
  return "Unknown";
}

void EncodeFrame(const Frame& frame, std::string* out) {
  AppendU32(out, kFrameMagic);
  AppendU16(out, kProtocolVersion);
  out->push_back(static_cast<char>(frame.opcode));
  out->push_back(static_cast<char>(frame.flags));
  AppendU64(out, frame.request_id);
  AppendU32(out, static_cast<uint32_t>(frame.payload.size()));
  out->append(frame.payload);
  AppendU32(out, FrameChecksum(static_cast<uint8_t>(frame.opcode),
                               frame.flags, frame.request_id, frame.payload));
}

Result<FrameDecode> DecodeFrame(std::string_view in, Frame* frame,
                                size_t* consumed) {
  if (in.size() < kFrameHeaderSize) return FrameDecode::kNeedMore;
  size_t pos = 0;
  uint32_t magic = 0;
  uint16_t version = 0;
  uint32_t payload_len = 0;
  uint64_t request_id = 0;
  ReadU32(in, &pos, &magic);
  ReadU16(in, &pos, &version);
  const uint8_t opcode = static_cast<uint8_t>(in[pos++]);
  const uint8_t flags = static_cast<uint8_t>(in[pos++]);
  ReadU64(in, &pos, &request_id);
  ReadU32(in, &pos, &payload_len);
  if (magic != kFrameMagic) return Status::ParseError("bad frame magic");
  if (version != kProtocolVersion) {
    return Status::ParseError("unsupported protocol version " +
                              std::to_string(version));
  }
  if (opcode < kMinOpcode || opcode > kMaxOpcode) {
    return Status::ParseError("unknown opcode " + std::to_string(opcode));
  }
  if ((flags & ~(kFlagError | kFlagTrace)) != 0) {
    return Status::ParseError("reserved frame flags set");
  }
  if (payload_len > kMaxFramePayload) {
    return Status::ParseError("frame payload over limit: " +
                              std::to_string(payload_len));
  }
  const size_t total = kFrameHeaderSize + payload_len + kFrameTrailerSize;
  if (in.size() < total) return FrameDecode::kNeedMore;
  std::string_view payload = in.substr(kFrameHeaderSize, payload_len);
  pos = kFrameHeaderSize + payload_len;
  uint32_t checksum = 0;
  ReadU32(in, &pos, &checksum);
  if (checksum != FrameChecksum(opcode, flags, request_id, payload)) {
    return Status::ParseError("frame checksum mismatch");
  }
  frame->opcode = static_cast<Opcode>(opcode);
  frame->flags = flags;
  frame->request_id = request_id;
  frame->payload.assign(payload);
  *consumed = total;
  return FrameDecode::kFrame;
}

void EncodeTracedPayload(std::string_view trace, std::string_view inner,
                         std::string* out) {
  AppendU32(out, static_cast<uint32_t>(trace.size()));
  out->append(trace);
  out->append(inner);
}

Result<TracedPayload> SplitTracedPayload(std::string_view payload) {
  size_t pos = 0;
  uint32_t trace_len = 0;
  if (!ReadU32(payload, &pos, &trace_len) ||
      payload.size() - pos < trace_len) {
    return Truncated("traced payload");
  }
  TracedPayload split;
  split.trace.assign(payload.substr(pos, trace_len));
  split.inner.assign(payload.substr(pos + trace_len));
  return split;
}

// ---------------------------------------------------------------------------
// Status wire table. Frozen: append new codes, never renumber.

uint16_t StatusCodeToWire(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 0;
    case StatusCode::kInvalidArgument:
      return 1;
    case StatusCode::kNotFound:
      return 2;
    case StatusCode::kParseError:
      return 3;
    case StatusCode::kUnsupported:
      return 4;
    case StatusCode::kEvalError:
      return 5;
    case StatusCode::kCancelled:
      return 6;
    case StatusCode::kDeadlineExceeded:
      return 7;
    case StatusCode::kInternal:
      return 8;
    case StatusCode::kResourceExhausted:
      return 9;
  }
  return 8;  // unreachable; map to Internal
}

Result<StatusCode> WireStatusCode(uint16_t wire) {
  switch (wire) {
    case 0:
      return StatusCode::kOk;
    case 1:
      return StatusCode::kInvalidArgument;
    case 2:
      return StatusCode::kNotFound;
    case 3:
      return StatusCode::kParseError;
    case 4:
      return StatusCode::kUnsupported;
    case 5:
      return StatusCode::kEvalError;
    case 6:
      return StatusCode::kCancelled;
    case 7:
      return StatusCode::kDeadlineExceeded;
    case 8:
      return StatusCode::kInternal;
    case 9:
      return StatusCode::kResourceExhausted;
    default:
      return Status::ParseError("unknown wire status code " +
                                std::to_string(wire));
  }
}

void EncodeStatusPayload(const Status& status, std::string* out) {
  AppendU16(out, StatusCodeToWire(status.code()));
  AppendString(out, status.message());
}

Status DecodeStatusPayload(std::string_view payload, Status* decoded) {
  size_t pos = 0;
  uint16_t wire = 0;
  std::string message;
  if (!ReadU16(payload, &pos, &wire) || !ReadString(payload, &pos, &message)) {
    return Truncated("status");
  }
  if (pos != payload.size()) return Trailing("status");
  QUICKVIEW_ASSIGN_OR_RETURN(StatusCode code, WireStatusCode(wire));
  *decoded = Status(code, std::move(message));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RPC payloads.

void Encode(const RegisterViewRequest& req, std::string* out) {
  AppendString(out, req.name);
  AppendString(out, req.view_text);
}

Result<RegisterViewRequest> DecodeRegisterViewRequest(
    std::string_view payload) {
  RegisterViewRequest req;
  size_t pos = 0;
  if (!ReadString(payload, &pos, &req.name) ||
      !ReadString(payload, &pos, &req.view_text)) {
    return Truncated("RegisterView");
  }
  if (pos != payload.size()) return Trailing("RegisterView");
  return req;
}

void Encode(const SearchRpcRequest& req, std::string* out) {
  AppendString(out, req.view);
  AppendU32(out, static_cast<uint32_t>(req.keywords.size()));
  for (const std::string& kw : req.keywords) AppendString(out, kw);
  AppendU32(out, req.top_k);
  out->push_back(req.conjunctive ? 1 : 0);
  AppendU32(out, static_cast<uint32_t>(req.shard));
  AppendU64(out, req.deadline_ms);
}

Result<SearchRpcRequest> DecodeSearchRpcRequest(std::string_view payload) {
  SearchRpcRequest req;
  size_t pos = 0;
  uint32_t keyword_count = 0;
  if (!ReadString(payload, &pos, &req.view) ||
      !ReadU32(payload, &pos, &keyword_count)) {
    return Truncated("Search");
  }
  req.keywords.clear();
  for (uint32_t i = 0; i < keyword_count; ++i) {
    std::string kw;
    if (!ReadString(payload, &pos, &kw)) return Truncated("Search");
    req.keywords.push_back(std::move(kw));
  }
  uint32_t shard = 0;
  if (!ReadU32(payload, &pos, &req.top_k) || pos >= payload.size()) {
    return Truncated("Search");
  }
  const uint8_t conjunctive = static_cast<uint8_t>(payload[pos++]);
  if (conjunctive > 1) {
    return Status::ParseError("Search conjunctive flag out of range");
  }
  req.conjunctive = conjunctive == 1;
  if (!ReadU32(payload, &pos, &shard) ||
      !ReadU64(payload, &pos, &req.deadline_ms)) {
    return Truncated("Search");
  }
  req.shard = static_cast<int32_t>(shard);
  if (pos != payload.size()) return Trailing("Search");
  return req;
}

void Encode(const engine::SearchResponse& resp, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(resp.hits.size()));
  for (const engine::SearchHit& hit : resp.hits) AppendHit(out, hit);
  AppendF64(out, resp.timings.qpt_ms);
  AppendF64(out, resp.timings.pdt_ms);
  AppendF64(out, resp.timings.eval_ms);
  AppendF64(out, resp.timings.post_ms);
  AppendSearchStats(out, resp.stats);
}

Result<engine::SearchResponse> DecodeSearchResponse(std::string_view payload) {
  engine::SearchResponse resp;
  size_t pos = 0;
  uint32_t hit_count = 0;
  if (!ReadU32(payload, &pos, &hit_count)) return Truncated("Search response");
  resp.hits.clear();
  for (uint32_t i = 0; i < hit_count; ++i) {
    engine::SearchHit hit;
    if (!ReadHit(payload, &pos, &hit)) return Truncated("Search response");
    resp.hits.push_back(std::move(hit));
  }
  if (!ReadF64(payload, &pos, &resp.timings.qpt_ms) ||
      !ReadF64(payload, &pos, &resp.timings.pdt_ms) ||
      !ReadF64(payload, &pos, &resp.timings.eval_ms) ||
      !ReadF64(payload, &pos, &resp.timings.post_ms) ||
      !ReadSearchStats(payload, &pos, &resp.stats)) {
    return Truncated("Search response");
  }
  if (pos != payload.size()) return Trailing("Search response");
  return resp;
}

void Encode(const OpenCursorResponse& resp, std::string* out) {
  AppendU64(out, resp.cursor_id);
  AppendU64(out, resp.matching);
  AppendU64(out, resp.pending);
}

Result<OpenCursorResponse> DecodeOpenCursorResponse(std::string_view payload) {
  OpenCursorResponse resp;
  size_t pos = 0;
  if (!ReadU64(payload, &pos, &resp.cursor_id) ||
      !ReadU64(payload, &pos, &resp.matching) ||
      !ReadU64(payload, &pos, &resp.pending)) {
    return Truncated("OpenCursor response");
  }
  if (pos != payload.size()) return Trailing("OpenCursor response");
  return resp;
}

void Encode(const FetchNextRequest& req, std::string* out) {
  AppendU64(out, req.cursor_id);
  AppendU32(out, req.count);
}

Result<FetchNextRequest> DecodeFetchNextRequest(std::string_view payload) {
  FetchNextRequest req;
  size_t pos = 0;
  if (!ReadU64(payload, &pos, &req.cursor_id) ||
      !ReadU32(payload, &pos, &req.count)) {
    return Truncated("FetchNext");
  }
  if (pos != payload.size()) return Trailing("FetchNext");
  return req;
}

void Encode(const FetchNextResponse& resp, std::string* out) {
  AppendU32(out, static_cast<uint32_t>(resp.hits.size()));
  for (const engine::SearchHit& hit : resp.hits) AppendHit(out, hit);
  out->push_back(resp.done ? 1 : 0);
}

Result<FetchNextResponse> DecodeFetchNextResponse(std::string_view payload) {
  FetchNextResponse resp;
  size_t pos = 0;
  uint32_t hit_count = 0;
  if (!ReadU32(payload, &pos, &hit_count)) {
    return Truncated("FetchNext response");
  }
  for (uint32_t i = 0; i < hit_count; ++i) {
    engine::SearchHit hit;
    if (!ReadHit(payload, &pos, &hit)) return Truncated("FetchNext response");
    resp.hits.push_back(std::move(hit));
  }
  if (pos >= payload.size()) return Truncated("FetchNext response");
  const uint8_t done = static_cast<uint8_t>(payload[pos++]);
  if (done > 1) {
    return Status::ParseError("FetchNext done flag out of range");
  }
  resp.done = done == 1;
  if (pos != payload.size()) return Trailing("FetchNext response");
  return resp;
}

void Encode(const CloseCursorRequest& req, std::string* out) {
  AppendU64(out, req.cursor_id);
}

Result<CloseCursorRequest> DecodeCloseCursorRequest(std::string_view payload) {
  CloseCursorRequest req;
  size_t pos = 0;
  if (!ReadU64(payload, &pos, &req.cursor_id)) return Truncated("CloseCursor");
  if (pos != payload.size()) return Trailing("CloseCursor");
  return req;
}

void Encode(const InsertRequest& req, std::string* out) {
  AppendString(out, req.name);
  AppendString(out, req.xml_text);
}

Result<InsertRequest> DecodeInsertRequest(std::string_view payload) {
  InsertRequest req;
  size_t pos = 0;
  if (!ReadString(payload, &pos, &req.name) ||
      !ReadString(payload, &pos, &req.xml_text)) {
    return Truncated("Insert");
  }
  if (pos != payload.size()) return Trailing("Insert");
  return req;
}

void Encode(const RemoveRequest& req, std::string* out) {
  AppendString(out, req.name);
}

Result<RemoveRequest> DecodeRemoveRequest(std::string_view payload) {
  RemoveRequest req;
  size_t pos = 0;
  if (!ReadString(payload, &pos, &req.name)) return Truncated("Remove");
  if (pos != payload.size()) return Trailing("Remove");
  return req;
}

}  // namespace quickview::server
