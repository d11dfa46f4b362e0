#pragma once

/// \file csv.h
/// Minimal CSV writer for experiment output.  Fields containing separators,
/// quotes or newlines are quoted per RFC 4180.

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hedra {

/// Streams rows of a CSV document.  The writer does not own the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os, char sep = ',') : os_(os), sep_(sep) {}

  /// Writes one row; values are escaped as needed.
  void row(const std::vector<std::string>& fields);

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  std::string escape(std::string_view field) const;

  std::ostream& os_;
  char sep_;
  std::size_t rows_ = 0;
};

}  // namespace hedra
