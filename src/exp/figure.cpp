#include "exp/figure.h"

#include <exception>
#include <fstream>
#include <limits>

#include "util/cli.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/table.h"

namespace hedra::exp {

namespace {

/// Registers `figure`'s flags, parses argv, and reads every value back;
/// false if --help printed the usage instead.
bool parse_flags(const Figure& figure, int argc, const char* const* argv,
                 std::ostream& out, Flags& flags) {
  ArgParser parser(figure.program, figure.summary);
  using Slot = std::variant<std::int64_t*, double*, std::string*, bool*>;
  std::vector<Slot> slots;
  for (const Flag& flag : figure.flags) {
    const FlagValue& value = flag.value;
    if (const auto* v = std::get_if<int>(&value)) {
      slots.emplace_back(parser.add_int(flag.name, *v, flag.help));
    } else if (const auto* v = std::get_if<std::int64_t>(&value)) {
      slots.emplace_back(parser.add_int(flag.name, *v, flag.help));
    } else if (const auto* v = std::get_if<double>(&value)) {
      slots.emplace_back(parser.add_real(flag.name, *v, flag.help));
    } else if (const auto* v = std::get_if<std::string>(&value)) {
      slots.emplace_back(parser.add_string(flag.name, *v, flag.help));
    } else {
      slots.emplace_back(parser.add_flag(flag.name, flag.help));
    }
  }
  if (!parser.parse(argc, argv, out)) return false;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const Flag& flag = figure.flags[i];
    FlagValue value = std::visit([](auto* v) { return FlagValue(*v); },
                                 slots[i]);
    if (std::holds_alternative<int>(flag.value)) {
      const std::int64_t v = std::get<std::int64_t>(value);
      HEDRA_REQUIRE(v >= std::numeric_limits<int>::min() &&
                        v <= std::numeric_limits<int>::max(),
                    "--" + flag.name + " " + std::to_string(v) +
                        " is out of range");
      value = static_cast<int>(v);
    }
    flags.values.emplace(flag.name, std::move(value));
  }
  return true;
}

std::string render(const Report& report) {
  std::string text = report.header;
  for (const Table& table : report.tables) {
    TextTable rendered(table.text_header);
    for (const auto& row : table.text_rows) {
      if (row.empty()) {
        rendered.add_separator();
      } else {
        rendered.add_row(row);
      }
    }
    text += table.title + rendered.render() + "\n";
  }
  return text + report.summary;
}

void write_csv(const Report& report, const std::string& path) {
  std::ofstream out(path);
  HEDRA_REQUIRE(out.good(), "cannot open '" + path + "' for writing");
  CsvWriter csv(out);
  for (const Table& table : report.tables) {
    if (table.csv_header.empty()) continue;
    csv.row(table.csv_header);
    for (const auto& row : table.csv_rows) csv.row(row);
  }
}

}  // namespace

int run_figure(const Figure& figure, int argc, const char* const* argv,
               std::ostream& out, std::ostream& err) {
  std::string text;
  std::string csv;
  int violations = 0;
  try {
    Flags flags;
    if (!parse_flags(figure, argc, argv, out, flags)) return 0;
    const Report report = figure.run(flags);
    text = render(report);
    violations = report.violations;
    if (flags.values.count("csv") != 0) csv = flags.get<std::string>("csv");
    if (!csv.empty()) write_csv(report, csv);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
  out << text;
  if (!csv.empty()) out << "\nCSV written to " << csv << "\n";
  if (violations == 0) return 0;
  err << "error: " << violations
      << " bound violation(s) — the analysis is unsound\n";
  return 1;
}

}  // namespace hedra::exp
