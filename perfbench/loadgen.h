// Load generation over the wire: the benchmark drives server::Client
// itself so that open-loop latency is timed from each request's due time
// (a stall then shows up in the requests queued behind it), and so every
// response can be checked against an in-process oracle.
#ifndef QUICKVIEW_PERFBENCH_LOADGEN_H_
#define QUICKVIEW_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"
#include "server/client.h"

namespace qvbench {

/// One read: a one-shot Search RPC (page == 0) or a cursor session
/// (OpenCursor, FetchNext of `page` hits until done, CloseCursor).
struct ReadOp {
  std::string view;
  std::vector<std::string> keywords;
  bool conjunctive = false;
  uint32_t top_k = 10;
  uint32_t page = 0;
};

/// One write: Insert (or replace) `name` with `xml`, or Remove `name`.
struct WriteOp {
  bool remove = false;
  std::string name;
  std::string xml;
};

/// A scheduled request: exactly one of `read`/`write` is set. `due_s` is
/// the send time relative to the start of the measured window (open loop
/// only).
struct Request {
  double due_s = 0;
  const ReadOp* read = nullptr;
  const WriteOp* write = nullptr;
};

/// Checks one read's hits; returns "" when correct, else the mismatch.
using ReadChecker =
    std::function<std::string(const ReadOp&, const std::vector<
                                                 quickview::engine::SearchHit>&)>;
/// Called once per acknowledged write (from the connection's thread).
using WriteAck = std::function<void(const WriteOp&)>;

/// Executes a read over `client`; cursor pages are concatenated.
quickview::Result<std::vector<quickview::engine::SearchHit>> RunRead(
    quickview::server::Client* client, const ReadOp& op);
quickview::Status RunWrite(quickview::server::Client* client,
                           const WriteOp& op);

/// One latency observation and when (seconds into the measured window)
/// its request was due (open loop) or sent (closed loop).
struct TimedSample {
  double at_s = 0;
  double ms = 0;
};

struct LoadResult {
  /// Read latency — open loop: due -> done; closed loop: issue -> done.
  std::vector<TimedSample> reads;
  /// Write latency, due -> acknowledgement.
  std::vector<TimedSample> writes;
  Samples late_ms;   // open loop: issue - due
  uint64_t attempted = 0;
  uint64_t failed = 0;  // transport, shed, deadline and wrong results
  double elapsed_s = 0;
  std::vector<std::string> errors;  // first few failure descriptions
};

/// Open loop: one connection per schedule; each connection sends its
/// requests at their due times (or as soon as it is free, when late)
/// until the due times pass `seconds`.
LoadResult RunOpenLoop(uint16_t port,
                       const std::vector<std::vector<Request>>& schedules,
                       double seconds, const ReadChecker& check,
                       const WriteAck& ack);

/// Closed loop: `ops[c]` is connection c's cyclic request list; each
/// connection sends its next read when the previous one completed, until
/// `seconds` have passed or (when nonzero) `max_per_connection` reads
/// were sent.
LoadResult RunClosedLoop(uint16_t port,
                         const std::vector<std::vector<const ReadOp*>>& ops,
                         double seconds, const ReadChecker& check,
                         size_t max_per_connection = 0);

/// The latencies of `samples`.
Samples Latencies(const std::vector<TimedSample>& samples);

/// Splits `samples`, ordered by time, into `k` consecutive groups of
/// (nearly) equal size.
std::vector<Samples> Slices(std::vector<TimedSample> samples, size_t k);

}  // namespace qvbench

#endif  // QUICKVIEW_PERFBENCH_LOADGEN_H_
