// Wire protocol: every RPC payload round-trips bit-exactly; frames
// survive arbitrary split points as kNeedMore; corruption — flipped
// bytes, bad magic, bad version, oversized length — is a typed
// ParseError, never a wrong decode. Runs under the Sanitize CI leg.
#include "server/protocol.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace quickview::server {
namespace {

Frame MakeFrame(Opcode opcode, uint64_t request_id, std::string payload,
                uint8_t flags = 0) {
  Frame frame;
  frame.opcode = opcode;
  frame.flags = flags;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  return frame;
}

std::string Encoded(const Frame& frame) {
  std::string wire;
  EncodeFrame(frame, &wire);
  return wire;
}

TEST(ProtocolFrameTest, RoundTrip) {
  const Frame frame = MakeFrame(Opcode::kSearch, 42, "payload bytes");
  const std::string wire = Encoded(frame);
  EXPECT_EQ(wire.size(),
            kFrameHeaderSize + frame.payload.size() + kFrameTrailerSize);
  Frame decoded;
  size_t consumed = 0;
  auto result = DecodeFrame(wire, &decoded, &consumed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(*result, FrameDecode::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(decoded.opcode, Opcode::kSearch);
  EXPECT_EQ(decoded.flags, 0);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.payload, "payload bytes");
}

TEST(ProtocolFrameTest, EmptyPayloadAndErrorFlag) {
  const Frame frame =
      MakeFrame(Opcode::kStats, 7, std::string(), kFlagError);
  const std::string wire = Encoded(frame);
  Frame decoded;
  size_t consumed = 0;
  auto result = DecodeFrame(wire, &decoded, &consumed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(*result, FrameDecode::kFrame);
  EXPECT_EQ(decoded.flags, kFlagError);
  EXPECT_TRUE(decoded.payload.empty());
}

TEST(ProtocolFrameTest, EveryTruncationPointNeedsMore) {
  // A valid frame truncated at EVERY byte boundary must report
  // kNeedMore — partial input is normal on a stream, never an error.
  const std::string wire =
      Encoded(MakeFrame(Opcode::kFetchNext, 9, "abcdef"));
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame decoded;
    size_t consumed = 0;
    auto result =
        DecodeFrame(std::string_view(wire).substr(0, len), &decoded,
                    &consumed);
    ASSERT_TRUE(result.ok()) << "len " << len << ": "
                             << result.status().ToString();
    EXPECT_EQ(*result, FrameDecode::kNeedMore) << "len " << len;
  }
}

TEST(ProtocolFrameTest, BackToBackFramesDecodeInOrder) {
  std::string wire = Encoded(MakeFrame(Opcode::kSearch, 1, "first"));
  const size_t first_size = wire.size();
  wire += Encoded(MakeFrame(Opcode::kStats, 2, std::string()));
  Frame decoded;
  size_t consumed = 0;
  auto result = DecodeFrame(wire, &decoded, &consumed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(*result, FrameDecode::kFrame);
  EXPECT_EQ(consumed, first_size);
  EXPECT_EQ(decoded.payload, "first");
  result = DecodeFrame(std::string_view(wire).substr(consumed), &decoded,
                       &consumed);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(*result, FrameDecode::kFrame);
  EXPECT_EQ(decoded.request_id, 2u);
}

TEST(ProtocolFrameTest, EveryCorruptedByteIsRejected) {
  // Flipping ANY byte of the frame must fail decoding — either a header
  // validation error or the checksum — and never mis-decode. (Bytes in
  // the payload-length field can also legitimately report kNeedMore:
  // a larger length makes the buffer an incomplete frame.)
  const std::string wire = Encoded(MakeFrame(Opcode::kInsert, 3, "xyz"));
  for (size_t i = 0; i < wire.size(); ++i) {
    std::string corrupt = wire;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x40);
    Frame decoded;
    size_t consumed = 0;
    auto result = DecodeFrame(corrupt, &decoded, &consumed);
    if (result.ok()) {
      EXPECT_EQ(*result, FrameDecode::kNeedMore) << "byte " << i;
    } else {
      EXPECT_EQ(result.status().code(), StatusCode::kParseError)
          << "byte " << i;
    }
  }
}

TEST(ProtocolFrameTest, BadMagicVersionOpcodeFlags) {
  const std::string wire = Encoded(MakeFrame(Opcode::kSearch, 1, "p"));
  {
    std::string bad = wire;
    bad[0] = 'X';
    Frame decoded;
    size_t consumed = 0;
    auto result = DecodeFrame(bad, &decoded, &consumed);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("magic"), std::string::npos);
  }
  // 99 is garbage; 1 is the previous version, whose Stats reply had
  // another shape, so a peer still speaking it must fail here.
  for (char version : {char{99}, char{1}}) {
    std::string bad = wire;
    bad[5] = version;  // version low byte
    Frame decoded;
    size_t consumed = 0;
    auto result = DecodeFrame(bad, &decoded, &consumed);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
    EXPECT_NE(result.status().message().find("version"), std::string::npos);
  }
  {
    std::string bad = wire;
    bad[6] = 0;  // opcode below kMinOpcode
    Frame decoded;
    size_t consumed = 0;
    auto result = DecodeFrame(bad, &decoded, &consumed);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("opcode"), std::string::npos);
  }
  {
    std::string bad = wire;
    bad[7] = static_cast<char>(0x80);  // reserved flag bit
    Frame decoded;
    size_t consumed = 0;
    auto result = DecodeFrame(bad, &decoded, &consumed);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().message().find("flags"), std::string::npos);
  }
}

TEST(ProtocolFrameTest, OversizedPayloadLengthRejectedBeforeRead) {
  // Header claims a payload over the cap: rejected immediately, no
  // matter that the bytes aren't there.
  std::string wire = Encoded(MakeFrame(Opcode::kSearch, 1, std::string()));
  wire[16] = static_cast<char>(0xff);  // payload-length high byte
  Frame decoded;
  size_t consumed = 0;
  auto result = DecodeFrame(wire, &decoded, &consumed);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("over limit"), std::string::npos);
}

TEST(ProtocolStatusTest, AllCodesRoundTripTheWire) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kParseError, StatusCode::kUnsupported,
        StatusCode::kEvalError, StatusCode::kCancelled,
        StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted,
        StatusCode::kInternal}) {
    auto back = WireStatusCode(StatusCodeToWire(code));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(WireStatusCode(999).ok());
}

TEST(ProtocolStatusTest, StatusPayloadRoundTrip) {
  const Status original =
      Status::ResourceExhausted("admission queue full (limit 4)");
  std::string payload;
  EncodeStatusPayload(original, &payload);
  Status decoded;
  Status parse = DecodeStatusPayload(payload, &decoded);
  ASSERT_TRUE(parse.ok()) << parse.ToString();
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.message(), "admission queue full (limit 4)");
  // Truncated and trailing payloads are ParseError.
  Status scratch;
  EXPECT_EQ(DecodeStatusPayload(payload.substr(0, payload.size() - 1),
                                &scratch)
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(DecodeStatusPayload(payload + "x", &scratch).code(),
            StatusCode::kParseError);
}

TEST(ProtocolPayloadTest, RegisterViewRoundTrip) {
  RegisterViewRequest req{"default", "for $b in doc(\"books.xml\")"};
  std::string payload;
  Encode(req, &payload);
  auto decoded = DecodeRegisterViewRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, req.name);
  EXPECT_EQ(decoded->view_text, req.view_text);
  EXPECT_FALSE(DecodeRegisterViewRequest(payload.substr(1)).ok());
  EXPECT_FALSE(DecodeRegisterViewRequest(payload + "x").ok());
}

TEST(ProtocolPayloadTest, SearchRpcRequestRoundTrip) {
  SearchRpcRequest req;
  req.view = "default";
  req.keywords = {"xml", "search", "web"};
  req.top_k = 25;
  req.conjunctive = true;
  req.shard = -1;
  req.deadline_ms = 1500;
  std::string payload;
  Encode(req, &payload);
  auto decoded = DecodeSearchRpcRequest(payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->view, req.view);
  EXPECT_EQ(decoded->keywords, req.keywords);
  EXPECT_EQ(decoded->top_k, 25u);
  EXPECT_TRUE(decoded->conjunctive);
  EXPECT_EQ(decoded->shard, -1);
  EXPECT_EQ(decoded->deadline_ms, 1500u);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeSearchRpcRequest(payload.substr(0, len)).ok())
        << "len " << len;
  }
  EXPECT_FALSE(DecodeSearchRpcRequest(payload + "x").ok());
}

TEST(ProtocolPayloadTest, SearchResponseRoundTripBitExact) {
  engine::SearchResponse resp;
  engine::SearchHit hit;
  hit.score = 0.1 + 0.2;  // not exactly 0.3 — bit-exactness matters
  hit.tf = {3, 0, 7};
  hit.byte_length = 12345;
  hit.xml = "<result>text</result>";
  resp.hits.push_back(hit);
  hit.score = -1.5e-300;
  hit.tf.clear();
  hit.xml.clear();
  resp.hits.push_back(hit);
  resp.timings.qpt_ms = 0.125;
  resp.timings.pdt_ms = 3.5;
  resp.timings.eval_ms = 1.0 / 3.0;
  resp.timings.post_ms = 0;
  resp.stats.view_results = 40;
  resp.stats.matching_results = 11;
  resp.stats.pdt.index_probes = 99;
  resp.stats.store_fetches = 17;
  std::string payload;
  Encode(resp, &payload);
  auto decoded = DecodeSearchResponse(payload);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->hits.size(), 2u);
  EXPECT_EQ(decoded->hits[0].score, 0.1 + 0.2);  // bit-identical
  EXPECT_EQ(decoded->hits[0].tf, (std::vector<uint64_t>{3, 0, 7}));
  EXPECT_EQ(decoded->hits[0].byte_length, 12345u);
  EXPECT_EQ(decoded->hits[0].xml, "<result>text</result>");
  EXPECT_EQ(decoded->hits[1].score, -1.5e-300);
  EXPECT_EQ(decoded->timings.eval_ms, 1.0 / 3.0);
  EXPECT_EQ(decoded->stats.view_results, 40u);
  EXPECT_EQ(decoded->stats.matching_results, 11u);
  EXPECT_EQ(decoded->stats.pdt.index_probes, 99u);
  EXPECT_EQ(decoded->stats.store_fetches, 17u);
  EXPECT_FALSE(DecodeSearchResponse(payload.substr(0, 10)).ok());
  EXPECT_FALSE(DecodeSearchResponse(payload + "x").ok());
}

TEST(ProtocolPayloadTest, CursorRpcsRoundTrip) {
  {
    OpenCursorResponse resp{77, 40, 30};
    std::string payload;
    Encode(resp, &payload);
    auto decoded = DecodeOpenCursorResponse(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->cursor_id, 77u);
    EXPECT_EQ(decoded->matching, 40u);
    EXPECT_EQ(decoded->pending, 30u);
    EXPECT_FALSE(DecodeOpenCursorResponse(payload.substr(1)).ok());
  }
  {
    FetchNextRequest req{77, 5};
    std::string payload;
    Encode(req, &payload);
    auto decoded = DecodeFetchNextRequest(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->cursor_id, 77u);
    EXPECT_EQ(decoded->count, 5u);
    EXPECT_FALSE(DecodeFetchNextRequest(payload + "x").ok());
  }
  {
    FetchNextResponse resp;
    engine::SearchHit hit;
    hit.score = 2.25;
    hit.xml = "<r/>";
    resp.hits.push_back(hit);
    resp.done = true;
    std::string payload;
    Encode(resp, &payload);
    auto decoded = DecodeFetchNextResponse(payload);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->hits.size(), 1u);
    EXPECT_EQ(decoded->hits[0].score, 2.25);
    EXPECT_TRUE(decoded->done);
    EXPECT_FALSE(DecodeFetchNextResponse(payload.substr(0, 4)).ok());
  }
  {
    CloseCursorRequest req{77};
    std::string payload;
    Encode(req, &payload);
    auto decoded = DecodeCloseCursorRequest(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->cursor_id, 77u);
    EXPECT_FALSE(DecodeCloseCursorRequest(payload.substr(1)).ok());
  }
}

TEST(ProtocolPayloadTest, MutationRpcsRoundTrip) {
  {
    InsertRequest req{"books.xml", "<books><book/></books>"};
    std::string payload;
    Encode(req, &payload);
    auto decoded = DecodeInsertRequest(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->name, req.name);
    EXPECT_EQ(decoded->xml_text, req.xml_text);
    EXPECT_FALSE(DecodeInsertRequest(payload.substr(0, 6)).ok());
  }
  {
    RemoveRequest req{"books.xml"};
    std::string payload;
    Encode(req, &payload);
    auto decoded = DecodeRemoveRequest(payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->name, req.name);
    EXPECT_FALSE(DecodeRemoveRequest(payload + "x").ok());
  }
}

TEST(ProtocolFrameTest, TraceFlagRoundTrips) {
  Frame frame = MakeFrame(Opcode::kSearch, 7, "inner");
  frame.flags = kFlagTrace;
  const std::string wire = Encoded(frame);
  Frame decoded;
  size_t consumed = 0;
  auto result = DecodeFrame(wire, &decoded, &consumed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(*result, FrameDecode::kFrame);
  EXPECT_EQ(decoded.flags, kFlagTrace);
  EXPECT_EQ(decoded.payload, "inner");
}

TEST(ProtocolPayloadTest, TracedPayloadRoundTrip) {
  const std::string trace = "trace 7\nrequest start=0us dur=5us\n";
  const std::string inner("binary\0payload", 14);
  std::string wrapped;
  EncodeTracedPayload(trace, inner, &wrapped);
  auto split = SplitTracedPayload(wrapped);
  ASSERT_TRUE(split.ok()) << split.status().ToString();
  EXPECT_EQ(split->trace, trace);
  EXPECT_EQ(split->inner, inner);
  // An empty trace and empty inner are both legal.
  wrapped.clear();
  EncodeTracedPayload("", "", &wrapped);
  split = SplitTracedPayload(wrapped);
  ASSERT_TRUE(split.ok());
  EXPECT_TRUE(split->trace.empty());
  EXPECT_TRUE(split->inner.empty());
  // A length prefix pointing past the payload is a ParseError.
  std::string bogus;
  EncodeTracedPayload(trace, inner, &bogus);
  bogus.resize(4 + trace.size() - 1);
  EXPECT_EQ(SplitTracedPayload(bogus).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(SplitTracedPayload("abc").status().code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace quickview::server
