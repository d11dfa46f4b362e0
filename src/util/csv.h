#pragma once

/// \file csv.h
/// Minimal CSV writer for experiment output.  Fields containing commas,
/// quotes or newlines are quoted per RFC 4180.

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace hedra {

/// Streams rows of a CSV document.  The writer does not own the stream.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  /// Writes one row; values are escaped as needed.
  void row(const std::vector<std::string>& fields);

 private:
  static std::string escape(std::string_view field);

  std::ostream& os_;
};

}  // namespace hedra
