#include "loadgen.h"

#include <algorithm>
#include <thread>

namespace qvbench {

using quickview::Result;
using quickview::Status;
using quickview::engine::SearchHit;
using quickview::server::Client;

namespace {

constexpr size_t kMaxErrors = 8;

quickview::server::SearchRpcRequest ToRpc(const ReadOp& op) {
  quickview::server::SearchRpcRequest req;
  req.view = op.view;
  req.keywords = op.keywords;
  req.top_k = op.top_k;
  req.conjunctive = op.conjunctive;
  return req;
}

Client Connect(uint16_t port) {
  Client client;
  Require(client.Connect("127.0.0.1", port), "connect to the server");
  Require(client.SetRecvTimeout(std::chrono::seconds(60)),
          "set the client receive timeout");
  return client;
}

/// One connection's results, merged after its thread joined.
struct Partial {
  LoadResult result;
  void Fail(const std::string& what) {
    ++result.failed;
    if (result.errors.size() < kMaxErrors) result.errors.push_back(what);
  }
};

void Merge(const Partial& part, LoadResult* out) {
  out->reads.insert(out->reads.end(), part.result.reads.begin(),
                    part.result.reads.end());
  out->writes.insert(out->writes.end(), part.result.writes.begin(),
                     part.result.writes.end());
  out->late_ms.Append(part.result.late_ms);
  out->attempted += part.result.attempted;
  out->failed += part.result.failed;
  for (const std::string& e : part.result.errors) {
    if (out->errors.size() < kMaxErrors) out->errors.push_back(e);
  }
}

/// Runs one read; returns true when it succeeded and checked correct.
/// `*done` is when the last response arrived (before the check ran).
bool DoRead(Client* client, const ReadOp& op, const ReadChecker& check,
            Partial* part, Clock::time_point* done) {
  Result<std::vector<SearchHit>> hits = RunRead(client, op);
  *done = Clock::now();
  if (!hits.ok()) {
    part->Fail("read failed: " + hits.status().ToString());
    return false;
  }
  std::string mismatch = check ? check(op, *hits) : "";
  if (!mismatch.empty()) {
    part->Fail("wrong read result: " + mismatch);
    return false;
  }
  return true;
}

}  // namespace

Result<std::vector<SearchHit>> RunRead(Client* client, const ReadOp& op) {
  if (op.page == 0) {
    QUICKVIEW_ASSIGN_OR_RETURN(quickview::engine::SearchResponse response,
                               client->Search(ToRpc(op)));
    return std::move(response.hits);
  }
  QUICKVIEW_ASSIGN_OR_RETURN(quickview::server::OpenCursorResponse opened,
                             client->OpenCursor(ToRpc(op)));
  std::vector<SearchHit> hits;
  Status status = Status::OK();
  for (;;) {
    Result<quickview::server::FetchNextResponse> page =
        client->FetchNext(opened.cursor_id, op.page);
    if (!page.ok()) {
      status = page.status();
      break;
    }
    for (SearchHit& hit : page->hits) hits.push_back(std::move(hit));
    if (page->done || page->hits.empty()) break;
  }
  Status closed = client->CloseCursor(opened.cursor_id);
  QUICKVIEW_RETURN_IF_ERROR(status);
  QUICKVIEW_RETURN_IF_ERROR(closed);
  return hits;
}

Status RunWrite(Client* client, const WriteOp& op) {
  return op.remove ? client->Remove(op.name) : client->Insert(op.name, op.xml);
}

LoadResult RunOpenLoop(uint16_t port,
                       const std::vector<std::vector<Request>>& schedules,
                       double seconds, const ReadChecker& check,
                       const WriteAck& ack) {
  std::vector<Client> clients;
  for (size_t i = 0; i < schedules.size(); ++i) clients.push_back(Connect(port));
  std::vector<Partial> parts(schedules.size());
  // Every connection shares one start instant, a little in the future so
  // all threads are waiting before the first request is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < schedules.size(); ++c) {
    threads.emplace_back([&, c] {
      Client* client = &clients[c];
      Partial* part = &parts[c];
      for (const Request& req : schedules[c]) {
        if (req.due_s >= seconds) break;
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(req.due_s));
        std::this_thread::sleep_until(due);
        const Clock::time_point issued = Clock::now();
        part->result.late_ms.Add(MsBetween(due, issued));
        ++part->result.attempted;
        if (req.read != nullptr) {
          Clock::time_point done;
          if (DoRead(client, *req.read, check, part, &done)) {
            part->result.reads.push_back({req.due_s, MsBetween(due, done)});
          }
        } else {
          Status written = RunWrite(client, *req.write);
          if (written.ok()) {
            part->result.writes.push_back(
                {req.due_s, MsBetween(due, Clock::now())});
            if (ack) ack(*req.write);
          } else {
            part->Fail("write failed: " + written.ToString());
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  // Until the last response arrived, so a backlog lowers the rate.
  out.elapsed_s = SecondsSince(start);
  for (const Partial& part : parts) Merge(part, &out);
  return out;
}

LoadResult RunClosedLoop(uint16_t port,
                         const std::vector<std::vector<const ReadOp*>>& ops,
                         double seconds, const ReadChecker& check,
                         size_t max_per_connection) {
  std::vector<Client> clients;
  for (size_t i = 0; i < ops.size(); ++i) clients.push_back(Connect(port));
  std::vector<Partial> parts(ops.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < ops.size(); ++c) {
    threads.emplace_back([&, c] {
      Client* client = &clients[c];
      Partial* part = &parts[c];
      for (size_t i = 0; Clock::now() < stop &&
                         (max_per_connection == 0 || i < max_per_connection);
           ++i) {
        const ReadOp& op = *ops[c][i % ops[c].size()];
        const Clock::time_point issued = Clock::now();
        ++part->result.attempted;
        Clock::time_point done;
        if (DoRead(client, op, check, part, &done)) {
          part->result.reads.push_back(
              {MsBetween(start, issued) / 1000.0, MsBetween(issued, done)});
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult out;
  out.elapsed_s = SecondsSince(start);
  for (const Partial& part : parts) Merge(part, &out);
  return out;
}

Samples Latencies(const std::vector<TimedSample>& samples) {
  Samples out;
  for (const TimedSample& s : samples) out.Add(s.ms);
  return out;
}

std::vector<Samples> Slices(std::vector<TimedSample> samples, size_t k) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) {
              return a.at_s < b.at_s;
            });
  std::vector<Samples> out(std::max<size_t>(k, 1));
  for (size_t i = 0; i < samples.size(); ++i) {
    out[i * out.size() / samples.size()].Add(samples[i].ms);
  }
  return out;
}

}  // namespace qvbench
