#pragma once

/// \file figure.h
/// The figure front-end.  Every figure program (fig6–fig12 and
/// ablation_policies) is a declared Figure: its flags with their defaults,
/// how the flags become its config, its run, and its Report — header
/// lines, column tables and summary lines.  One driver, run_figure, serves
/// them all in one order:
///
///   parse argv → build the config → run → write the CSV → print
///
/// so a config the figure rejects, or any failure of its run, exits 1
/// with stdout empty.  A report that counts bound violations (fig10–fig12)
/// exits 1 after printing.  The figures themselves are in exp/figures.h.
///
/// A table lists each column once, with its text header and cell, its CSV
/// header and cell, or both; one renderer prints every text table and one
/// writer exports every CSV.

#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace hedra::exp {

/// A flag's value.  The type of a flag's default is the flag's type: an
/// `int` flag is range-checked into `int`, `std::int64_t` holds seeds and
/// node budgets, and `bool` is a switch that is off by default.
using FlagValue = std::variant<int, std::int64_t, double, std::string, bool>;

/// One flag of a figure program; a Figure lists them in --help order.
struct Flag {
  std::string name;
  FlagValue value;  ///< the default
  std::string help;
};

/// The parsed flags of one run, by name.
struct Flags {
  std::map<std::string, FlagValue> values;

  template <typename T>
  [[nodiscard]] const T& get(const std::string& name) const {
    return std::get<T>(values.at(name));
  }
};

/// One column of a table.  An empty header leaves the column out of that
/// view; a CSV column without its own `csv_cell` prints `cell`.
template <typename Row>
struct Column {
  std::string text;
  std::function<std::string(const Row&)> cell;
  std::string csv = {};
  std::function<std::string(const Row&)> csv_cell = {};
};

/// A table laid out as text: every cell formatted, both views.
struct Table {
  std::string title;  ///< printed above the text table
  std::vector<std::string> text_header;
  std::vector<std::string> csv_header;
  std::vector<std::vector<std::string>> text_rows;  ///< {} prints a rule
  std::vector<std::vector<std::string>> csv_rows;
};

/// Appends `rows` to `table` in `columns`; the first call sets the headers.
template <typename Row>
void add_rows(Table& table, const std::vector<Column<Row>>& columns,
              const std::vector<Row>& rows) {
  const bool first = table.text_header.empty() && table.csv_header.empty();
  for (const Column<Row>& column : columns) {
    if (first && !column.text.empty()) table.text_header.push_back(column.text);
    if (first && !column.csv.empty()) table.csv_header.push_back(column.csv);
  }
  for (const Row& row : rows) {
    std::vector<std::string> text;
    std::vector<std::string> csv;
    for (const Column<Row>& column : columns) {
      if (!column.text.empty()) text.push_back(column.cell(row));
      if (column.csv.empty()) continue;
      csv.push_back(column.csv_cell ? column.csv_cell(row) : column.cell(row));
    }
    if (!text.empty()) table.text_rows.push_back(std::move(text));
    if (!csv.empty()) table.csv_rows.push_back(std::move(csv));
  }
}

/// Everything a figure prints, built before anything is printed: the
/// header, then each table as its title, the table and a blank line, then
/// the summary.
struct Report {
  std::string header;
  std::vector<Table> tables;
  std::string summary;
  int violations = 0;  ///< bound violations the rows count; > 0 exits 1
};

/// A figure program: what `--help` lists, and the run from parsed flags to
/// the report.  A figure with a `csv` flag writes its tables' CSV there.
struct Figure {
  std::string program;
  std::string summary;
  std::vector<Flag> flags;
  std::function<Report(const Flags&)> run;
};

/// A Figure from its three steps: flags → config, config → result, and
/// (flags, config, result) → report.
template <typename Config, typename Result>
[[nodiscard]] Figure make_figure(
    std::string program, std::string summary, std::vector<Flag> flags,
    Config (*configure)(const Flags&), Result (*run)(const Config&),
    Report (*report)(const Flags&, const Config&, const Result&)) {
  return {std::move(program), std::move(summary), std::move(flags),
          [=](const Flags& values) {
            const Config config = configure(values);
            return report(values, config, run(config));
          }};
}

/// The driver: parses argv into `figure`'s flags (int flags range-checked),
/// runs it, writes the CSV, and only then prints the report to `out`.
/// Returns the exit status: 0, or 1 after an error (stdout left empty) or
/// after printing a report that counts violations; both messages go to
/// `err`.
int run_figure(const Figure& figure, int argc, const char* const* argv,
               std::ostream& out = std::cout, std::ostream& err = std::cerr);

}  // namespace hedra::exp
