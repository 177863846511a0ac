// Unit proof of the write-ahead log's three contracts (pagestore/wal.h):
// framing round-trips, recovery classifies damage by position — EVERY
// truncation byte-offset of a torn tail recovers the committed prefix,
// while mid-log corruption and sequence breaks stay loudly fatal — and
// group commit batches concurrent appenders into fewer fdatasync calls
// than records while applying their callbacks in sequence order. Also
// checks what LiveDatabase's WAL-mode insert applies: the document it
// parsed before logging, moved to its root component.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sync.h"
#include "index/index_builder.h"
#include "pagestore/delta_log.h"
#include "pagestore/wal.h"
#include "storage/live_database.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace quickview::pagestore {
namespace {

std::string TestPath(const std::string& leaf) {
  return (std::filesystem::path(::testing::TempDir()) / leaf).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(static_cast<bool>(out)) << path;
}

std::unique_ptr<Wal> MustOpen(const std::string& path,
                              const WalOptions& options = {}) {
  auto wal = Wal::Open(path, options);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  return std::move(*wal);
}

TEST(WalTest, AppendReplayRoundTrip) {
  const std::string path = TestPath("wal_roundtrip.wal");
  std::filesystem::remove(path);
  const std::vector<std::string> payloads = {"alpha", "bravo bravo",
                                             std::string(1000, 'c')};
  {
    std::unique_ptr<Wal> wal = MustOpen(path);
    EXPECT_TRUE(wal->replay().payloads.empty());
    for (size_t i = 0; i < payloads.size(); ++i) {
      auto seq = wal->Append(payloads[i]);
      ASSERT_TRUE(seq.ok()) << seq.status().ToString();
      EXPECT_EQ(*seq, i + 1);
    }
    EXPECT_EQ(wal->appended_records(), payloads.size());
    EXPECT_EQ(wal->sync_calls(), payloads.size());  // single writer
  }
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->payloads, payloads);
  EXPECT_EQ(replay->last_seq, payloads.size());
  EXPECT_FALSE(replay->tail_truncated);

  // Reopen for writing: recovery sees the same records, sequence numbers
  // continue where the last instance stopped.
  std::unique_ptr<Wal> wal = MustOpen(path);
  EXPECT_EQ(wal->replay().payloads, payloads);
  auto seq = wal->Append("delta");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(*seq, payloads.size() + 1);
}

TEST(WalTest, RejectsEmptyPayloadAndMissingFileIsEmpty) {
  const std::string path = TestPath("wal_empty.wal");
  std::filesystem::remove(path);
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->payloads.empty());
  std::unique_ptr<Wal> wal = MustOpen(path);
  EXPECT_FALSE(wal->Append("").ok());
}

// The satellite-2 sweep: a log truncated at EVERY byte offset — the
// file a crash can leave behind at any point of any append — must
// recover exactly the records whose frames are complete, never
// ParseError, and the write path must truncate the tail and continue.
TEST(WalTest, EveryTruncationOffsetRecoversCommittedPrefix) {
  const std::string full_path = TestPath("wal_trunc_full.wal");
  std::filesystem::remove(full_path);
  const std::vector<std::string> payloads = {"first record", "2nd",
                                             "third record body"};
  // Record the byte boundary after the magic and after each frame.
  std::vector<size_t> boundaries;
  {
    std::unique_ptr<Wal> wal = MustOpen(full_path);
    boundaries.push_back(8);  // the magic goes out with the first commit
    for (const std::string& p : payloads) {
      ASSERT_TRUE(wal->Append(p).ok());
      boundaries.push_back(
          static_cast<size_t>(std::filesystem::file_size(full_path)));
    }
  }
  const std::string bytes = ReadFileBytes(full_path);
  ASSERT_EQ(bytes.size(), boundaries.back());

  const std::string cut_path = TestPath("wal_trunc_cut.wal");
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    SCOPED_TRACE("truncated at byte " + std::to_string(cut));
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    // How many records fit entirely below the cut?
    size_t committed = 0;
    while (committed < payloads.size() && boundaries[committed + 1] <= cut) {
      ++committed;
    }
    // Read path: recover the prefix without touching the file.
    auto replay = ReplayWal(cut_path);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    ASSERT_EQ(replay->payloads.size(), committed);
    for (size_t i = 0; i < committed; ++i) {
      EXPECT_EQ(replay->payloads[i], payloads[i]);
    }
    EXPECT_EQ(replay->tail_truncated,
              cut != 0 && cut != boundaries[committed]);
    EXPECT_EQ(std::filesystem::file_size(cut_path), cut) << "read modified";
    // Write path: truncate the tail, then accept a new record with the
    // next sequence number after the survivors.
    std::unique_ptr<Wal> wal = MustOpen(cut_path);
    auto seq = wal->Append("appended after recovery");
    ASSERT_TRUE(seq.ok()) << seq.status().ToString();
    EXPECT_EQ(*seq, committed + 1);
    auto healed = ReplayWal(cut_path);
    ASSERT_TRUE(healed.ok());
    ASSERT_EQ(healed->payloads.size(), committed + 1);
    EXPECT_EQ(healed->payloads.back(), "appended after recovery");
    EXPECT_FALSE(healed->tail_truncated);
  }
}

TEST(WalTest, MidLogChecksumCorruptionIsFatal) {
  const std::string path = TestPath("wal_midlog.wal");
  std::filesystem::remove(path);
  {
    std::unique_ptr<Wal> wal = MustOpen(path);
    ASSERT_TRUE(wal->Append("victim record").ok());
    ASSERT_TRUE(wal->Append("innocent successor").ok());
  }
  const std::string bytes = ReadFileBytes(path);
  // Flip every byte of the FIRST record except its length field (a
  // corrupt length makes the rest of the log unparseable — recovery
  // cannot even find the next frame, so it is classified as a tear).
  // Record 1 spans [8, 8+12+13+4); skip the 4 length bytes at [8, 12).
  const size_t frame_end = 8 + 12 + 13 + 4;
  for (size_t pos = 12; pos < frame_end; ++pos) {
    SCOPED_TRACE("corrupted byte " + std::to_string(pos));
    std::string damaged = bytes;
    damaged[pos] = static_cast<char>(damaged[pos] ^ 0x20);
    WriteFileBytes(path, damaged);
    auto replay = ReplayWal(path);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kParseError);
    // The write path refuses too: no appending past unexplained damage.
    EXPECT_FALSE(Wal::Open(path).ok());
  }
}

TEST(WalTest, SequenceBreakIsFatalEvenAtTheTail) {
  const std::string path = TestPath("wal_seqbreak.wal");
  std::filesystem::remove(path);
  {
    std::unique_ptr<Wal> wal = MustOpen(path);
    ASSERT_TRUE(wal->Append("record one").ok());
    ASSERT_TRUE(wal->Append("record two").ok());
  }
  const std::string bytes = ReadFileBytes(path);
  const size_t frame1_end = 8 + 12 + 10 + 4;
  // Splice record 2 (seq=2, checksum intact) directly after the magic:
  // a checksum-valid record with the wrong sequence number was never
  // torn — it is corruption, fatal even with nothing following it.
  WriteFileBytes(path, bytes.substr(0, 8) + bytes.substr(frame1_end));
  auto replay = ReplayWal(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kParseError);
}

TEST(WalTest, BadMagicIsFatal) {
  const std::string path = TestPath("wal_magic.wal");
  WriteFileBytes(path, "NOTAWAL0 trailing bytes");
  EXPECT_FALSE(ReplayWal(path).ok());
  EXPECT_FALSE(Wal::Open(path).ok());
}

TEST(WalTest, GroupCommitBatchesConcurrentWriters) {
  const std::string path = TestPath("wal_group.wal");
  std::filesystem::remove(path);
  std::unique_ptr<Wal> wal = MustOpen(path);

  // Thread 0 becomes the commit-group leader and parks inside its apply
  // callback until the other writers have reached Append — so they all
  // queue behind it and get drained as ONE batch with one fdatasync.
  constexpr int kFollowers = 7;
  std::atomic<int> followers_arrived{0};
  std::thread leader([&] {
    auto seq = wal->Append("leader record", [&]() {
      while (followers_arrived.load() < kFollowers) {
        std::this_thread::yield();
      }
      // The arrival counter ticks just before each follower calls
      // Append; give them time to actually enqueue behind this commit.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      return Status::OK();
    });
    EXPECT_TRUE(seq.ok()) << seq.status().ToString();
  });
  std::vector<std::thread> followers;
  followers.reserve(kFollowers);
  for (int t = 0; t < kFollowers; ++t) {
    followers.emplace_back([&, t] {
      followers_arrived.fetch_add(1);
      auto seq = wal->Append("follower " + std::to_string(t));
      EXPECT_TRUE(seq.ok()) << seq.status().ToString();
    });
  }
  leader.join();
  for (std::thread& th : followers) th.join();

  constexpr uint64_t kTotal = 1 + kFollowers;
  EXPECT_EQ(wal->appended_records(), kTotal);
  // The whole point of group commit: fewer fsyncs than records. The
  // leader's own record costs one; the followers share batches (all in
  // one if none straggled), so well under one sync per record.
  EXPECT_LT(wal->sync_calls(), kTotal);
  EXPECT_EQ(wal->sync_calls(), wal->commit_batches());
  // And the log itself holds every record exactly once, in sequence.
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->payloads.size(), kTotal);
  EXPECT_EQ(replay->last_seq, kTotal);
}

TEST(WalTest, ApplyCallbacksRunInSequenceOrder) {
  const std::string path = TestPath("wal_applyorder.wal");
  std::filesystem::remove(path);
  std::unique_ptr<Wal> wal = MustOpen(path);
  // Applies are globally serialized (one leader at a time, batches in
  // order, each batch applied in queue order), so the i-th apply overall
  // must belong to sequence number i — whatever the thread interleaving.
  std::atomic<uint64_t> applies{0};
  constexpr int kThreads = 6;
  constexpr int kPerThread = 30;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        uint64_t my_apply_index = 0;
        auto seq = wal->Append(
            "p" + std::to_string(t) + "." + std::to_string(i), [&]() {
              my_apply_index = applies.fetch_add(1) + 1;
              return Status::OK();
            });
        EXPECT_TRUE(seq.ok()) << seq.status().ToString();
        if (seq.ok()) {
          EXPECT_EQ(*seq, my_apply_index);
        }
      }
    });
  }
  for (std::thread& th : writers) th.join();
  EXPECT_EQ(applies.load(), uint64_t{kThreads} * kPerThread);
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->last_seq, uint64_t{kThreads} * kPerThread);
}

TEST(WalTest, PerRecordModeSyncsEveryAppend) {
  const std::string path = TestPath("wal_per_record.wal");
  std::filesystem::remove(path);
  WalOptions options;
  options.group_commit = false;
  std::unique_ptr<Wal> wal = MustOpen(path, options);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(wal->Append("r" + std::to_string(t * 10 + i)).ok());
      }
    });
  }
  for (std::thread& th : writers) th.join();
  // No batching: the regression guard for "appends must actually reach
  // the fdatasync syscall" — every committed record paid one sync.
  EXPECT_EQ(wal->appended_records(), 40u);
  EXPECT_EQ(wal->sync_calls(), 40u);
  auto replay = ReplayWal(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->last_seq, 40u);
}

TEST(WalTest, DeltaPayloadRoundTripsThroughTheLog) {
  const std::string pack = TestPath("wal_delta.qvpack");
  const std::string log = DeltaLogPath(pack);
  std::filesystem::remove(log);
  ASSERT_TRUE(PackAppend(pack, "a.xml", "<d><t>xml</t></d>").ok());
  ASSERT_TRUE(PackTombstone(pack, "a.xml").ok());
  auto records = ReadDeltaLog(pack);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_FALSE((*records)[0].tombstone);
  EXPECT_EQ((*records)[0].name, "a.xml");
  EXPECT_EQ((*records)[0].xml, "<d><t>xml</t></d>");
  EXPECT_TRUE((*records)[1].tombstone);
  EXPECT_EQ((*records)[1].name, "a.xml");
  EXPECT_TRUE((*records)[1].xml.empty());
}

/// Every byte both indexes of one document hold, in key order: path
/// rows, the distinct-path dictionary, and postings.
std::vector<std::string> IndexBytes(const index::DocumentIndexes& indexes) {
  std::vector<std::string> out;
  indexes.path_index.ForEachRaw(
      [&](const std::string& key, const std::string& value) {
        out.push_back("row " + key + '\0' + value);
      });
  for (const std::string& path : indexes.path_index.distinct_path_list()) {
    out.push_back("path " + path);
  }
  indexes.inverted_index.ForEachPosting(
      [&](const std::string& term, const xml::DeweyId& id, uint32_t tf) {
        out.push_back("posting " + term + ' ' + id.ToString() + ' ' +
                      std::to_string(tf));
      });
  return out;
}

/// `name` in `live` is exactly `xml_text` parsed under `root`: the same
/// tree, every id starting with `root`, and indexes equal to a fresh
/// build.
void ExpectInstalledAs(storage::LiveDatabase& live, const std::string& name,
                       const std::string& xml_text, uint32_t root) {
  qv::ReaderLock lock(live.mu());
  const xml::Document* doc = live.database()->GetDocument(name);
  ASSERT_NE(doc, nullptr) << name;
  EXPECT_EQ(doc->root_component(), root) << name;
  auto fresh = xml::ParseXml(xml_text, root);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(doc->size(), (*fresh)->size()) << name;
  for (xml::NodeIndex i = 0; i < doc->size(); ++i) {
    EXPECT_EQ(doc->node(i).id.component(0), root) << name;
    EXPECT_EQ(doc->node(i).id, (*fresh)->node(i).id) << name;
  }
  EXPECT_EQ(xml::Serialize(*doc), xml::Serialize(**fresh)) << name;
  const index::DocumentIndexes* indexes = live.indexes()->Get(name);
  ASSERT_NE(indexes, nullptr) << name;
  EXPECT_EQ(IndexBytes(*indexes),
            IndexBytes(*index::BuildDocumentIndexes(**fresh)))
      << name;
}

TEST(WalTest, LiveInsertsInstallTheDocumentParsedBeforeLogging) {
  const std::string path = TestPath("wal_live_install.wal");
  std::filesystem::remove(path);
  const std::string a = "<books><book><title>xml</title></book></books>";
  const std::string b1 =
      "<reviews><review><isbn>1</isbn><content>good xml search</content>"
      "</review></reviews>";
  const std::string b2 =
      "<reviews><review><isbn>2</isbn><content>better search</content>"
      "</review><review><isbn>1</isbn><rate>5</rate></review></reviews>";
  {
    storage::LiveDatabase live;
    ASSERT_TRUE(live.OpenWal(path).ok());
    ASSERT_TRUE(live.CommitInsert("a.xml", a).ok());
    // A new name: parsed under root 1 before logging, installed at 2.
    ASSERT_TRUE(live.CommitInsert("b.xml", b1).ok());
    ExpectInstalledAs(live, "b.xml", b1, 2);
    // A replacement keeps the replaced document's root component.
    ASSERT_TRUE(live.CommitInsert("b.xml", b2).ok());
    ExpectInstalledAs(live, "a.xml", a, 1);
    ExpectInstalledAs(live, "b.xml", b2, 2);
    // Bad XML fails before anything is logged.
    EXPECT_FALSE(live.CommitInsert("c.xml", "<unclosed>").ok());
    EXPECT_EQ(live.wal()->appended_records(), 3u);
  }
  // Replay parses each record once more and lands in the same state.
  storage::LiveDatabase replayed;
  ASSERT_TRUE(replayed.OpenWal(path).ok());
  ExpectInstalledAs(replayed, "a.xml", a, 1);
  ExpectInstalledAs(replayed, "b.xml", b2, 2);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace quickview::pagestore
