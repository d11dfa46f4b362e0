#pragma once

/// \file journal.h
/// Crash-safe append-only record journal — the admission service's write-
/// ahead log.  Every admitted or departing task is journalled BEFORE the
/// in-memory snapshot is swapped, so a restart replays the journal to the
/// exact admitted state the last acknowledged response promised.
///
/// On-disk format: a sequence of CRC-framed records,
///
///     u32 magic "HJL1"  |  u32 payload length  |  u32 CRC-32(payload)
///     payload bytes...
///
/// little-endian fixed-width fields, no alignment padding.  Each append is
/// a single write(2) followed by fsync(2), and the durability contract is
/// all-or-nothing: if any step fails — a short write, an injected fault, a
/// full disk — the file is truncated back to the pre-append length before
/// the error propagates, so the journal on disk never ends in a frame the
/// writer did not fully commit... except after a CRASH mid-write, which is
/// exactly what replay() tolerates: a trailing frame that is incomplete or
/// fails its CRC is treated as a torn tail, the clean prefix is returned,
/// and the next append truncates the torn bytes away.  A bad frame that is
/// NOT at the tail (bytes of further frames follow) is corruption, not a
/// torn write, and replay() throws rather than silently dropping accepted
/// records.
///
/// Fault seams (util/fault.h): `serve.journal.write` before the frame is
/// assembled, `serve.journal.write.mid` between the header and payload
/// writes (arming it with `@N!kill` produces a real torn frame for the
/// crash-recovery test), `serve.journal.sync` before fsync, and
/// `serve.journal.dirsync` before the parent directory's fsync when the
/// journal holds no record yet.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hedra::serve {

/// Outcome of replaying a journal file.
struct JournalReplay {
  std::vector<std::string> records;  ///< clean-prefix payloads, append order
  std::uint64_t clean_bytes = 0;     ///< file offset after the last good frame
  bool torn_tail = false;            ///< trailing partial/corrupt frame seen
};

/// Append-side handle.  Not thread-safe; the admission service serialises
/// all writes on its worker thread.
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

  /// Durably appends one record (write + fsync).  All-or-nothing: on any
  /// failure the file is restored to its previous length and the error is
  /// rethrown.
  void append(std::string_view payload);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_written_;
  }
  /// Committed on-disk length (frames fully written + fsynced), the
  /// `journal_bytes` field of the enriched STATUS line.
  [[nodiscard]] std::uint64_t bytes_committed() const noexcept {
    return size_;
  }

  /// Replays `path` (missing file = empty journal).  Returns the clean
  /// prefix; throws hedra::Error on non-tail corruption or I/O failure.
  [[nodiscard]] static JournalReplay replay(const std::string& path);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t size_ = 0;  ///< committed file length
  std::uint64_t records_written_ = 0;
};

}  // namespace hedra::serve
