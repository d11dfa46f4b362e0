#pragma once

/// \file fd_stream.h
/// A std::streambuf over a POSIX file descriptor, so tests can drive
/// serve::run_server through real pipes: the client writes requests and
/// reads replies while the server runs on another thread or process.

#include <unistd.h>

#include <cerrno>
#include <streambuf>

namespace hedra::testing {

class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;
  ~FdStreamBuf() override { (void)flush_out(); }

 protected:
  int_type underflow() override {
    ssize_t n = 0;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!flush_out()) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_out() ? 0 : -1; }

 private:
  bool flush_out() {
    const char* data = pbase();
    while (data < pptr()) {
      const ssize_t n = ::write(fd_, data, static_cast<std::size_t>(pptr() - data));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data += n;
    }
    setp(out_, out_ + sizeof(out_));
    return true;
  }

  int fd_;
  char in_[4096];
  char out_[4096];
};

}  // namespace hedra::testing
