// Client: a blocking, single-connection speaker of the quickview wire
// protocol — one typed method per RPC, plus the raw Send/ReadFrame pair
// the tests use to drive the server into corner states (e.g. filling
// the admission queue without reading responses).
//
// Not thread-safe: one Client per thread (the load driver opens one per
// worker). RPC methods are strict request/response — each sends one
// frame and reads frames until the matching request id comes back; an
// error frame decodes into its typed Status, so a server-side
// kResourceExhausted or kDeadlineExceeded surfaces to the caller
// exactly as the in-process QueryService would have returned it.
#ifndef QUICKVIEW_SERVER_CLIENT_H_
#define QUICKVIEW_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "server/protocol.h"

namespace quickview::server {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to host:port (IPv4 dotted quad). A server over its
  /// connection cap replies with one error frame and closes; that
  /// surfaces on the first RPC, not here.
  Status Connect(const std::string& host, uint16_t port);

  /// Closes the connection (idempotent).
  void Close();

  bool connected() const { return fd_ >= 0; }

  /// SO_RCVTIMEO on the socket: a read blocked longer than this fails
  /// DeadlineExceeded instead of hanging forever.
  Status SetRecvTimeout(std::chrono::milliseconds timeout);

  // Typed RPCs. Transport failures are Internal("connection ..."); a
  // server-side error frame is returned as its decoded Status.
  //
  // A non-null `trace_out` sets kFlagTrace on the request: the server
  // traces it end to end and `*trace_out` receives the serialized span
  // tree from the response (empty if the server returned none).
  Status RegisterView(const std::string& name, const std::string& view_text);
  Result<engine::SearchResponse> Search(const SearchRpcRequest& request,
                                        std::string* trace_out = nullptr);
  Result<OpenCursorResponse> OpenCursor(const SearchRpcRequest& request,
                                        std::string* trace_out = nullptr);
  Result<FetchNextResponse> FetchNext(uint64_t cursor_id, uint32_t count,
                                      std::string* trace_out = nullptr);
  Status CloseCursor(uint64_t cursor_id);
  Status Insert(const std::string& name, const std::string& xml_text);
  Status Remove(const std::string& name);
  /// The server's StatsText: its Prometheus exposition plus the
  /// slow-query log as comment lines. Read single series out of it with
  /// obs::ExpositionValue.
  Result<std::string> Stats();

  // Raw frame access, for tests that decouple sending from reading.
  /// Sends one request frame with an explicit request id.
  Status SendRequest(Opcode opcode, uint64_t request_id, std::string payload,
                     uint8_t flags = 0);
  /// Reads the next whole frame off the wire (any opcode/id).
  Result<Frame> ReadFrame();

 private:
  /// Send + read until `request_id` answers; returns the success payload
  /// or the error frame's Status. A non-null `trace_out` sets kFlagTrace
  /// on the request and unwraps a traced response into trace + inner
  /// payload.
  Result<std::string> Call(Opcode opcode, std::string payload,
                           std::string* trace_out = nullptr);

  int fd_ = -1;
  uint64_t next_request_ = 1;
  std::string buffer_;  // bytes read but not yet decoded
};

}  // namespace quickview::server

#endif  // QUICKVIEW_SERVER_CLIENT_H_
