#pragma once

/// \file journal.h
/// Crash-safe append-only record journal — the admission service's write-
/// ahead log.  Every admitted or departing task is journalled, and the
/// record made durable, BEFORE the in-memory snapshot is published or the
/// request answered, so a restart replays the journal to the exact
/// admitted state the last acknowledged response promised.
///
/// On-disk format: a sequence of CRC-framed records,
///
///     u32 magic "HJL1"  |  u32 payload length  |  u32 CRC-32(payload)
///     payload bytes...
///
/// little-endian fixed-width fields, no alignment padding.
///
/// Group commit: write() puts one frame in the file without fsync, and
/// sync() makes every record up to a given position durable with one
/// fsync(2), however many records that covers.  append() is the two in a
/// row.  The durability contract is all-or-nothing per rollback: if a
/// write or an fsync fails — a short write, an injected fault, a full
/// disk — the file is truncated back to the last durable byte, every
/// record written since is discarded (the rollback count, the *era*,
/// goes up), and the error propagates.  So the journal on disk never ends
/// in a frame the writer did not fully commit... except after a CRASH
/// mid-write, which is exactly what replay() tolerates: a trailing frame
/// that is SHORT (its header or payload runs past the end of the file) is
/// treated as a torn tail, the clean prefix is returned, and the next open
/// truncates the torn bytes away.  Every COMPLETE frame must be intact:
/// bad magic, a length over the cap or a CRC mismatch is corruption, not a
/// torn write, and replay() throws rather than silently dropping accepted
/// records, even when that frame is the last one in the file.
///
/// Thread model: one thread may write while another syncs — the admission
/// server's worker writes records as it decides requests while its
/// committer fsyncs the records already written.  The bookkeeping is
/// guarded by an internal mutex; the fsync itself runs outside it, so a
/// write never waits for the disk.
///
/// Fault seams (util/fault.h): `serve.journal.write` before the frame is
/// written, `serve.journal.write.mid` between the header and payload
/// writes (arming it with `@N!kill` produces a real torn frame for the
/// crash-recovery test), `serve.journal.sync` before fsync, and
/// `serve.journal.dirsync` before the parent directory's fsync when the
/// journal holds no record yet.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.h"

namespace hedra::serve {

/// Outcome of replaying a journal file.
struct JournalReplay {
  std::vector<std::string> records;  ///< clean-prefix payloads, append order
  std::uint64_t clean_bytes = 0;     ///< file offset after the last good frame
  bool torn_tail = false;            ///< trailing partial/corrupt frame seen
};

/// A point in the journal: the file length after some record, and the
/// rollback count (era) it was written in.  A rollback truncates the file,
/// so lengths are comparable only within one era.
struct JournalPosition {
  std::uint64_t era = 0;
  std::uint64_t bytes = 0;
};

/// Append-side handle.  Thread-safe (see the file comment).
class Journal {
 public:
  /// Opens (creating if absent) the journal at `path`.  While the journal
  /// holds no record — it was just created, or a previous open failed
  /// before the first append — the open also fsyncs the parent directory,
  /// so the journal's name survives a power loss before any append is
  /// acknowledged; if that sync fails the open throws.  If the file ends in
  /// a torn tail from a crashed writer, the tail is truncated away so new
  /// appends extend the clean prefix.  Throws hedra::Error on I/O failure
  /// or non-tail corruption.
  explicit Journal(std::string path);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Writes one record frame without fsync and returns the position after
  /// it; the record is durable once sync() covers that position.  `era`
  /// is the era of the records the new one builds on.  When a rollback has
  /// discarded them since, nothing is written and the position returned
  /// lies in that old era beyond any durable byte, so it can never be
  /// synced: the new record is lost with the history it extends.  On a
  /// failed write the journal rolls back to its last durable byte
  /// (discarding every record not yet synced) and the error is rethrown.
  /// A payload over the cap is refused up front and changes nothing.
  JournalPosition write(std::string_view payload, std::uint64_t era)
      HEDRA_EXCLUDES(mutex_);

  /// Makes every record up to `upto` durable with one fsync (none when it
  /// already is).  Throws hedra::Error when `upto` is not durable after
  /// all: the fsync failed (the journal then rolls back as write() does),
  /// or a rollback discarded `upto` before or during the call.
  void sync(const JournalPosition& upto) HEDRA_EXCLUDES(mutex_);

  /// write() then sync(): one durable record.
  void append(std::string_view payload) HEDRA_EXCLUDES(mutex_) {
    sync(write(payload, era()));
  }

  /// The position after the last durable record, in the current era.
  [[nodiscard]] JournalPosition durable() const HEDRA_EXCLUDES(mutex_);

  /// Rollbacks so far; a position from an older era may have been lost.
  [[nodiscard]] std::uint64_t era() const HEDRA_EXCLUDES(mutex_);

  /// What caused the latest rollback (empty before the first).
  [[nodiscard]] std::string last_error() const HEDRA_EXCLUDES(mutex_);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Frames this handle wrote successfully (a rollback does not uncount
  /// them).
  [[nodiscard]] std::uint64_t records_written() const HEDRA_EXCLUDES(mutex_);

  /// Durable on-disk length, the `journal_bytes` field of the enriched
  /// STATUS line.
  [[nodiscard]] std::uint64_t bytes_committed() const HEDRA_EXCLUDES(mutex_) {
    return durable().bytes;
  }

  /// Replays `path` (missing file = empty journal).  Returns the clean
  /// prefix; throws hedra::Error on non-tail corruption or I/O failure.
  [[nodiscard]] static JournalReplay replay(const std::string& path);

 private:
  /// Truncates the file to the last durable byte and opens a new era.
  void rollback(const std::string& why) HEDRA_REQUIRES(mutex_);

  const std::string path_;
  /// Set by the constructor and never changed: write(2), ftruncate and
  /// lseek run under `mutex_`, fsync outside it.
  int fd_ = -1;
  mutable util::Mutex mutex_;
  std::uint64_t size_ HEDRA_GUARDED_BY(mutex_) = 0;     ///< bytes written
  std::uint64_t durable_ HEDRA_GUARDED_BY(mutex_) = 0;  ///< bytes fsynced
  std::uint64_t era_ HEDRA_GUARDED_BY(mutex_) = 0;
  std::uint64_t records_written_ HEDRA_GUARDED_BY(mutex_) = 0;
  std::string last_error_ HEDRA_GUARDED_BY(mutex_);
};

}  // namespace hedra::serve
