#include "util/csv.h"

namespace hedra {

void CsvWriter::row(const std::vector<std::string>& fields) {
  bool first = true;
  for (const auto& field : fields) {
    if (!first) os_ << sep_;
    first = false;
    os_ << escape(field);
  }
  os_ << '\n';
  ++rows_;
}

std::string CsvWriter::escape(std::string_view field) const {
  const bool needs_quotes =
      field.find(sep_) != std::string_view::npos ||
      field.find('"') != std::string_view::npos ||
      field.find('\n') != std::string_view::npos ||
      field.find('\r') != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace hedra
