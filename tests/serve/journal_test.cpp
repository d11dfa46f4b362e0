#include "serve/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "util/error.h"
#include "util/fault.h"

namespace hedra::serve {
namespace {

std::string temp_journal(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(JournalTest, AppendReplayRoundTrip) {
  const std::string path = temp_journal("roundtrip.journal");
  {
    Journal journal(path);
    journal.append("platform 4:acc");
    journal.append("admit\ntask tau1 ...\nendtask\n");
    journal.append("");  // empty records are legal frames
    EXPECT_EQ(journal.records_written(), 3u);
  }
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[0], "platform 4:acc");
  EXPECT_EQ(replay.records[1], "admit\ntask tau1 ...\nendtask\n");
  EXPECT_EQ(replay.records[2], "");
  EXPECT_FALSE(replay.torn_tail);
}

TEST(JournalTest, MissingFileReplaysEmpty) {
  const JournalReplay replay =
      Journal::replay(::testing::TempDir() + "/never_created.journal");
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.clean_bytes, 0u);
}

TEST(JournalTest, ReopenAppendsAfterExistingRecords) {
  const std::string path = temp_journal("reopen.journal");
  {
    Journal journal(path);
    journal.append("one");
  }
  {
    Journal journal(path);
    journal.append("two");
  }
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0], "one");
  EXPECT_EQ(replay.records[1], "two");
}

TEST(JournalTest, TornTailIsToleratedAndTruncatedOnOpen) {
  const std::string path = temp_journal("torn.journal");
  {
    Journal journal(path);
    journal.append("kept record");
    journal.append("doomed record");
  }
  // Chop bytes off the last frame: a crash mid-append.
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 4u);
  for (std::size_t chop = 1; chop <= 4; ++chop) {
    write_file(path, bytes.substr(0, bytes.size() - chop));
    const JournalReplay replay = Journal::replay(path);
    ASSERT_EQ(replay.records.size(), 1u) << "chop " << chop;
    EXPECT_EQ(replay.records[0], "kept record");
    EXPECT_TRUE(replay.torn_tail);
  }
  // Opening for append truncates the torn tail and continues cleanly.
  {
    Journal journal(path);
    journal.append("replacement");
  }
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0], "kept record");
  EXPECT_EQ(replay.records[1], "replacement");
  EXPECT_FALSE(replay.torn_tail);
}

TEST(JournalTest, PartialHeaderIsATornTail) {
  const std::string path = temp_journal("partial_header.journal");
  {
    Journal journal(path);
    journal.append("whole");
  }
  std::string bytes = read_file(path);
  write_file(path, bytes + "HJ");  // 2 stray bytes: less than a header
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_TRUE(replay.torn_tail);
}

TEST(JournalTest, CorruptPayloadIsFatalNotTorn) {
  const std::string path = temp_journal("corrupt.journal");
  {
    Journal journal(path);
    journal.append("record one");
    journal.append("record two");
  }
  // Flip one byte inside the FIRST record's payload: the frame is complete,
  // so a CRC mismatch means in-place corruption — refusing to serve beats
  // silently dropping admitted state.
  std::string bytes = read_file(path);
  bytes[14] = static_cast<char>(bytes[14] ^ 0x01);  // 12-byte header + 2
  write_file(path, bytes);
  EXPECT_THROW((void)Journal::replay(path), Error);
  EXPECT_THROW(Journal journal(path), Error);
}

TEST(JournalTest, BadMagicIsFatal) {
  const std::string path = temp_journal("badmagic.journal");
  {
    Journal journal(path);
    journal.append("fine");
  }
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  EXPECT_THROW((void)Journal::replay(path), Error);
}

TEST(JournalTest, InjectedWriteFaultRollsBackTheFrame) {
  const std::string path = temp_journal("rollback.journal");
  Journal journal(path);
  journal.append("committed");
  const std::string before = read_file(path);

  fault::configure("serve.journal.write.mid=@1");
  EXPECT_THROW(journal.append("torn by fault"), fault::Injected);
  fault::reset();

  // All-or-nothing: the failed append left no partial frame behind.
  EXPECT_EQ(read_file(path), before);
  journal.append("after recovery");
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0], "committed");
  EXPECT_EQ(replay.records[1], "after recovery");
}

TEST(JournalTest, CreatingTheJournalSyncsItsDirectoryOnce) {
  const std::string path = temp_journal("dirsync.journal");
  fault::clear_registry();
  fault::configure("*=0");  // enabled, never fires: counts the hits
  {
    Journal journal(path);
    journal.append("first");
  }
  EXPECT_EQ(fault::hits("serve.journal.dirsync"), 1u);
  {
    // An existing journal pays nothing extra at start-up.
    Journal reopened(path);
    reopened.append("second");
  }
  EXPECT_EQ(fault::hits("serve.journal.dirsync"), 1u);
  fault::clear_registry();
  EXPECT_EQ(Journal::replay(path).records.size(), 2u);
}

TEST(JournalTest, DirectorySyncFaultRefusesToOpen) {
  const std::string path = temp_journal("dirsync_fault.journal");
  fault::clear_registry();
  fault::configure("serve.journal.dirsync=@1");
  EXPECT_THROW(Journal journal(path), fault::Injected);
  // The failed open left an empty file; it still holds no record, so the
  // next open syncs the directory again before the first append.
  fault::configure("*=0");
  Journal journal(path);
  EXPECT_EQ(fault::hits("serve.journal.dirsync"), 1u);
  journal.append("durable");
  fault::clear_registry();
  EXPECT_EQ(Journal::replay(path).records.size(), 1u);
}

TEST(JournalTest, OneSyncMakesEveryWrittenFrameDurable) {
  const std::string path = temp_journal("group_sync.journal");
  fault::clear_registry();
  fault::configure("*=0");  // enabled, never fires: counts the fsyncs
  {
    Journal journal(path);
    const JournalPosition empty = journal.durable();
    const JournalPosition a = journal.write("a", 0);
    const JournalPosition b = journal.write("b", 0);
    const JournalPosition c = journal.write("c", 0);
    EXPECT_LT(a.bytes, b.bytes);
    EXPECT_LT(b.bytes, c.bytes);
    EXPECT_EQ(journal.durable().bytes, empty.bytes);  // written, not synced
    journal.sync(c);
    EXPECT_EQ(journal.durable().bytes, c.bytes);
    journal.sync(b);  // already durable: no second fsync
  }
  EXPECT_EQ(fault::hits("serve.journal.sync"), 1u);
  fault::clear_registry();
  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 3u);
  EXPECT_EQ(replay.records[2], "c");
}

TEST(JournalTest, SyncFaultTruncatesEveryUnsyncedFrame) {
  const std::string path = temp_journal("group_sync_fault.journal");
  Journal journal(path);
  journal.append("durable");
  const std::string before = read_file(path);
  (void)journal.write("lost 1", 0);
  (void)journal.write("lost 2", 0);
  const JournalPosition last = journal.write("lost 3", 0);

  fault::configure("serve.journal.sync=@1");
  EXPECT_THROW(journal.sync(last), fault::Injected);
  fault::reset();

  // Rolled back to the last durable byte, in a new era: the lost records
  // can neither be synced nor extended.
  EXPECT_EQ(read_file(path), before);
  EXPECT_EQ(journal.era(), 1u);
  EXPECT_NE(journal.last_error().find("serve.journal.sync"),
            std::string::npos);
  EXPECT_THROW(journal.sync(last), Error);
  const JournalPosition stale = journal.write("built on lost 3", 0);
  EXPECT_EQ(read_file(path), before);  // not written...
  EXPECT_THROW(journal.sync(stale), Error);  // ...and never durable
  journal.sync(journal.write("after rollback", 1));
  fault::clear_registry();

  const JournalReplay replay = Journal::replay(path);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0], "durable");
  EXPECT_EQ(replay.records[1], "after rollback");
  EXPECT_FALSE(replay.torn_tail);
}

TEST(JournalTest, WriteFaultAlsoDiscardsEarlierUnsyncedFrames) {
  const std::string path = temp_journal("group_write_fault.journal");
  Journal journal(path);
  journal.append("durable");
  const std::string before = read_file(path);
  const JournalPosition unsynced = journal.write("unsynced", 0);

  fault::configure("serve.journal.write=@1");
  EXPECT_THROW((void)journal.write("faulted", 0), fault::Injected);
  fault::reset();
  fault::clear_registry();

  EXPECT_EQ(read_file(path), before);
  EXPECT_EQ(journal.era(), 1u);
  EXPECT_THROW(journal.sync(unsynced), Error);
  EXPECT_EQ(Journal::replay(path).records.size(), 1u);
}

TEST(JournalTest, OversizedRecordRefused) {
  const std::string path = temp_journal("oversize.journal");
  Journal journal(path);
  EXPECT_THROW(journal.append(std::string(65 * 1024 * 1024, 'x')), Error);
  // The refusal left the journal clean.
  journal.append("still fine");
  EXPECT_EQ(Journal::replay(path).records.size(), 1u);
}

}  // namespace
}  // namespace hedra::serve
