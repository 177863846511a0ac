#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace quickview::server {
namespace {

Status TransportError(const char* what) {
  return Status::Internal(std::string("connection ") + what + ": " +
                          std::strerror(errno));
}

}  // namespace

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_request_(other.next_request_),
      buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    next_request_ = other.next_request_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Status Client::Connect(const std::string& host, uint16_t port) {
  if (fd_ >= 0) return Status::InvalidArgument("client already connected");
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return TransportError("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host: " + host);
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = TransportError("connect");
    ::close(fd);
    return status;
  }
  fd_ = fd;
  return Status::OK();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status Client::SetRecvTimeout(std::chrono::milliseconds timeout) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return TransportError("setsockopt");
  }
  return Status::OK();
}

Status Client::SendRequest(Opcode opcode, uint64_t request_id,
                           std::string payload, uint8_t flags) {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  Frame frame;
  frame.opcode = opcode;
  frame.flags = flags;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  std::string wire;
  EncodeFrame(frame, &wire);
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return TransportError("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<Frame> Client::ReadFrame() {
  if (fd_ < 0) return Status::InvalidArgument("client not connected");
  char chunk[64 * 1024];
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    QUICKVIEW_ASSIGN_OR_RETURN(FrameDecode decoded,
                               DecodeFrame(buffer_, &frame, &consumed));
    if (decoded == FrameDecode::kFrame) {
      buffer_.erase(0, consumed);
      return frame;
    }
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) {
      return Status::Internal("connection closed by server");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("read timed out");
      }
      return TransportError("recv");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

Result<std::string> Client::Call(Opcode opcode, std::string payload,
                                 std::string* trace_out) {
  const uint64_t request_id = next_request_++;
  if (trace_out != nullptr) trace_out->clear();
  const uint8_t flags = trace_out != nullptr ? kFlagTrace : 0;
  QUICKVIEW_RETURN_IF_ERROR(
      SendRequest(opcode, request_id, std::move(payload), flags));
  for (;;) {
    QUICKVIEW_ASSIGN_OR_RETURN(Frame frame, ReadFrame());
    // A strict request/response client never has other ids in flight; an
    // unsolicited id (e.g. the connection-reject frame, id 0) is decoded
    // for its typed error rather than skipped.
    if (frame.request_id != request_id &&
        (frame.flags & kFlagError) == 0) {
      continue;
    }
    if ((frame.flags & kFlagError) != 0) {
      Status status;
      QUICKVIEW_RETURN_IF_ERROR(DecodeStatusPayload(frame.payload, &status));
      if (status.ok()) {
        return Status::Internal("error frame carried an OK status");
      }
      return status;
    }
    if ((frame.flags & kFlagTrace) != 0) {
      QUICKVIEW_ASSIGN_OR_RETURN(TracedPayload traced,
                                 SplitTracedPayload(frame.payload));
      if (trace_out != nullptr) *trace_out = std::move(traced.trace);
      return std::move(traced.inner);
    }
    return std::move(frame.payload);
  }
}

Status Client::RegisterView(const std::string& name,
                            const std::string& view_text) {
  RegisterViewRequest req{name, view_text};
  std::string payload;
  Encode(req, &payload);
  return Call(Opcode::kRegisterView, std::move(payload)).status();
}

Result<engine::SearchResponse> Client::Search(const SearchRpcRequest& request,
                                              std::string* trace_out) {
  std::string payload;
  Encode(request, &payload);
  QUICKVIEW_ASSIGN_OR_RETURN(
      std::string body, Call(Opcode::kSearch, std::move(payload), trace_out));
  return DecodeSearchResponse(body);
}

Result<OpenCursorResponse> Client::OpenCursor(const SearchRpcRequest& request,
                                              std::string* trace_out) {
  std::string payload;
  Encode(request, &payload);
  QUICKVIEW_ASSIGN_OR_RETURN(
      std::string body,
      Call(Opcode::kOpenCursor, std::move(payload), trace_out));
  return DecodeOpenCursorResponse(body);
}

Result<FetchNextResponse> Client::FetchNext(uint64_t cursor_id, uint32_t count,
                                            std::string* trace_out) {
  FetchNextRequest req{cursor_id, count};
  std::string payload;
  Encode(req, &payload);
  QUICKVIEW_ASSIGN_OR_RETURN(
      std::string body,
      Call(Opcode::kFetchNext, std::move(payload), trace_out));
  return DecodeFetchNextResponse(body);
}

Status Client::CloseCursor(uint64_t cursor_id) {
  CloseCursorRequest req{cursor_id};
  std::string payload;
  Encode(req, &payload);
  return Call(Opcode::kCloseCursor, std::move(payload)).status();
}

Status Client::Insert(const std::string& name, const std::string& xml_text) {
  InsertRequest req{name, xml_text};
  std::string payload;
  Encode(req, &payload);
  return Call(Opcode::kInsert, std::move(payload)).status();
}

Status Client::Remove(const std::string& name) {
  RemoveRequest req{name};
  std::string payload;
  Encode(req, &payload);
  return Call(Opcode::kRemove, std::move(payload)).status();
}

Result<std::string> Client::Stats() {
  return Call(Opcode::kStats, std::string());
}

}  // namespace quickview::server
