#include "serve/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "util/crc32.h"
#include "util/error.h"
#include "util/fault.h"

namespace hedra::serve {

namespace {

constexpr std::uint32_t kMagic = 0x314C4A48u;  // "HJL1" little-endian
constexpr std::size_t kHeaderSize = 12;        // magic + length + crc
/// Payloads beyond this are a corrupt length field, not a record — the cap
/// keeps replay from allocating gigabytes off four garbage bytes.
constexpr std::uint32_t kMaxPayload = 64u * 1024 * 1024;
/// The length of a record write() refused to put on a discarded history.
constexpr std::uint64_t kNeverDurable =
    std::numeric_limits<std::uint64_t>::max();

void put_u32(unsigned char* out, std::uint32_t value) {
  out[0] = static_cast<unsigned char>(value & 0xFF);
  out[1] = static_cast<unsigned char>((value >> 8) & 0xFF);
  out[2] = static_cast<unsigned char>((value >> 16) & 0xFF);
  out[3] = static_cast<unsigned char>((value >> 24) & 0xFF);
}

std::uint32_t get_u32(const unsigned char* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

/// write(2) until done; throws on error (EINTR retried).
void write_all(int fd, const void* data, std::size_t size,
               const std::string& path) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, bytes, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("journal write failed: " + path + ": " +
                  std::strerror(errno));
    }
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// fsyncs the directory holding `path`, making a just-created entry for
/// it durable: an fsync of the file alone persists its bytes, not the
/// name that reaches them.
void sync_parent_directory(const std::string& path) {
  HEDRA_FAULT("serve.journal.dirsync");
  const auto slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    throw Error("cannot open journal directory: " + dir + ": " +
                std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("journal directory fsync failed: " + dir + ": " +
                std::strerror(err));
  }
  ::close(fd);
}

/// The error for a position a rollback discarded.
std::string discarded(const std::string& why) {
  return "journal rollback discarded the record (" + why + ")";
}

}  // namespace

Journal::Journal(std::string path) : path_(std::move(path)) {
  // Replay first: it validates the clean prefix and measures where any torn
  // tail begins, so the open below can truncate the tail away and every
  // future append extends committed state only.
  const JournalReplay replay = Journal::replay(path_);
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) {
    throw Error("cannot open journal: " + path_ + ": " + std::strerror(errno));
  }
  if (replay.clean_bytes == 0) {
    // No record committed yet: the file is new, or an earlier start created
    // it and failed before its first append.  Make its directory entry
    // durable before any append is acknowledged, so a power loss cannot
    // take the whole journal with it.  A journal holding records skips
    // this: its entry was synced before its first record was.
    try {
      sync_parent_directory(path_);
    } catch (...) {
      ::close(fd_);
      fd_ = -1;
      throw;
    }
  }
  util::MutexLock lock(mutex_);
  size_ = durable_ = replay.clean_bytes;
  if (replay.torn_tail) {
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot truncate torn journal tail: " + path_ + ": " +
                  std::strerror(err));
    }
  }
  if (::lseek(fd_, static_cast<off_t>(size_), SEEK_SET) < 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot seek journal: " + path_ + ": " + std::strerror(err));
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::rollback(const std::string& why) {
  // If even the truncation fails the file still replays correctly up to
  // the torn bytes, and the next write overwrites them from the durable
  // length on; the original error is the one worth propagating.
  (void)::ftruncate(fd_, static_cast<off_t>(durable_));
  (void)::lseek(fd_, static_cast<off_t>(durable_), SEEK_SET);
  size_ = durable_;
  ++era_;
  last_error_ = why;
}

JournalPosition Journal::write(std::string_view payload, std::uint64_t era) {
  if (payload.size() > kMaxPayload) {
    throw Error("journal record exceeds the " +
                std::to_string(kMaxPayload) + "-byte payload cap");
  }
  unsigned char header[kHeaderSize];
  put_u32(header, kMagic);
  put_u32(header + 4, static_cast<std::uint32_t>(payload.size()));
  put_u32(header + 8, util::crc32(payload));

  util::MutexLock lock(mutex_);
  if (era != era_) return JournalPosition{era, kNeverDurable};
  try {
    HEDRA_FAULT("serve.journal.write");
    write_all(fd_, header, kHeaderSize, path_);
    // The seam between the two writes of one frame: a kill here leaves a
    // header with no payload on disk — the torn tail replay() tolerates.
    HEDRA_FAULT("serve.journal.write.mid");
    write_all(fd_, payload.data(), payload.size(), path_);
  } catch (const std::exception& e) {
    rollback(e.what());
    throw;
  }
  size_ += kHeaderSize + payload.size();
  ++records_written_;
  return JournalPosition{era_, size_};
}

void Journal::sync(const JournalPosition& upto) {
  std::uint64_t era = 0;
  {
    util::MutexLock lock(mutex_);
    if (upto.era != era_) throw Error(discarded(last_error_));
    if (upto.bytes <= durable_) return;
    era = era_;
  }
  // The fsync runs unlocked, so the writer keeps appending meanwhile; it
  // covers at least every byte written before it started, `upto` included.
  std::string failure;
  try {
    HEDRA_FAULT("serve.journal.sync");
    if (::fsync(fd_) != 0) {
      failure = "journal fsync failed: " + path_ + ": " + std::strerror(errno);
    }
  } catch (const std::exception& e) {
    util::MutexLock lock(mutex_);
    if (era_ == era) rollback(e.what());
    throw;
  }
  util::MutexLock lock(mutex_);
  // A failed write rolled back meanwhile, truncating what this fsync
  // covered.
  if (era_ != era) throw Error(discarded(last_error_));
  if (!failure.empty()) {
    rollback(failure);
    throw Error(failure);
  }
  durable_ = std::max(durable_, upto.bytes);
}

JournalPosition Journal::durable() const {
  util::MutexLock lock(mutex_);
  return JournalPosition{era_, durable_};
}

std::uint64_t Journal::era() const {
  util::MutexLock lock(mutex_);
  return era_;
}

std::string Journal::last_error() const {
  util::MutexLock lock(mutex_);
  return last_error_;
}

std::uint64_t Journal::records_written() const {
  util::MutexLock lock(mutex_);
  return records_written_;
}

JournalReplay Journal::replay(const std::string& path) {
  JournalReplay out;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return out;  // no journal yet: empty state
    throw Error("cannot open journal: " + path + ": " + std::strerror(errno));
  }
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw Error("journal read failed: " + path + ": " + std::strerror(err));
    }
    if (n == 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t offset = 0;
  const auto corrupt = [&](const std::string& why) -> void {
    throw Error("journal corrupt at offset " + std::to_string(offset) + ": " +
                why + " (" + path + ")");
  };
  while (offset < data.size()) {
    const std::size_t remaining = data.size() - offset;
    // A crashed append only ever leaves a TRUNCATED frame at the tail (the
    // file grows monotonically and header precedes payload), so missing
    // bytes are a tolerated torn tail, while in-place garbage — bad magic,
    // an absurd length, a CRC mismatch over a complete payload — is real
    // corruption and fatal: silently dropping acknowledged records would
    // un-admit tasks the service already promised.
    if (remaining < kHeaderSize) {
      out.torn_tail = true;
      break;
    }
    if (get_u32(bytes + offset) != kMagic) corrupt("bad frame magic");
    const std::uint32_t length = get_u32(bytes + offset + 4);
    if (length > kMaxPayload) {
      corrupt("frame length " + std::to_string(length) + " exceeds cap");
    }
    if (remaining < kHeaderSize + length) {
      out.torn_tail = true;
      break;
    }
    const std::uint32_t expected = get_u32(bytes + offset + 8);
    const std::string_view payload(data.data() + offset + kHeaderSize, length);
    if (util::crc32(payload) != expected) corrupt("frame CRC mismatch");
    out.records.emplace_back(payload);
    offset += kHeaderSize + length;
    out.clean_bytes = offset;
  }
  return out;
}

}  // namespace hedra::serve
