#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/figure_cli.h"
#include "exp/figures.h"
#include "util/error.h"

/// The figure front-end.  Every figure program's stdout, CSV and --help are
/// pinned byte for byte in tests/golden/figures/, generated by the figure
/// binaries before they shared one driver; cases.txt lists the runs, one
/// `<golden stem> <program> <args...>` per line.  Regenerate from a build:
///
///   cd tests/golden/figures && while read -r stem prog args; do
///     ../../../build/$prog $args > $stem.txt; done < cases.txt
///
/// Then the driver's own rules, on stub figures.

namespace hedra::exp {
namespace {

using hedra::testing::CliRun;
using hedra::testing::run_cli;

const std::string kGoldenDir =
    std::string(HEDRA_TEST_DATA_DIR) + "/golden/figures/";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Figure figure_named(const std::string& program) {
  for (Figure figure :
       {fig6_figure(), fig7_figure(), fig8_figure(), fig9_figure(),
        fig10_figure(), fig11_figure(), fig12_figure(), ablation_figure()}) {
    if (figure.program == program) return figure;
  }
  throw Error("no figure program " + program);
}

struct GoldenCase {
  std::string stem;
  std::string program;
  std::vector<std::string> args;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.stem; }

std::vector<GoldenCase> golden_cases() {
  std::ifstream in(kGoldenDir + "cases.txt");
  std::vector<GoldenCase> cases;
  for (std::string line; std::getline(in, line);) {
    std::istringstream words(line);
    GoldenCase c;
    words >> c.stem >> c.program;
    for (std::string word; words >> word;) c.args.push_back(word);
    cases.push_back(std::move(c));
  }
  return cases;
}

class FigureGoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(FigureGoldenTest, MatchesTheGoldenOutput) {
  GoldenCase c = GetParam();
  // The CSV goes to a scratch path; the golden's "CSV written to" line
  // names it by the file name cases.txt gives.
  std::string csv_name;
  std::string csv_path;
  for (std::size_t i = 0; i + 1 < c.args.size(); ++i) {
    if (c.args[i] != "--csv") continue;
    csv_name = c.args[i + 1];
    csv_path = ::testing::TempDir() + "/" + csv_name;
    c.args[i + 1] = csv_path;
  }
  const CliRun run = run_cli(figure_named(c.program), c.args);
  EXPECT_EQ(run.status, 0);
  EXPECT_EQ(run.err, "");
  std::string out = run.out;
  if (!csv_name.empty()) {
    const std::string written = "CSV written to " + csv_path;
    const auto at = out.find(written);
    ASSERT_NE(at, std::string::npos);
    out.replace(at, written.size(), "CSV written to " + csv_name);
    EXPECT_EQ(read_file(csv_path), read_file(kGoldenDir + csv_name));
  }
  EXPECT_EQ(out, read_file(kGoldenDir + c.stem + ".txt"));
}

INSTANTIATE_TEST_SUITE_P(
    Figures, FigureGoldenTest, ::testing::ValuesIn(golden_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.stem;
    });

TEST(FigureGoldenCasesTest, CoverEveryProgramAndItsHelp) {
  std::vector<std::string> helped;
  for (const GoldenCase& c : golden_cases()) {
    if (c.args == std::vector<std::string>{"--help"}) {
      helped.push_back(c.program);
    }
  }
  EXPECT_EQ(helped, (std::vector<std::string>{
                        "fig6_transform_impact", "fig7_accuracy_vs_ilp",
                        "fig8_scenarios", "fig9_hom_vs_het",
                        "fig10_multi_device", "fig11_units", "fig12_taskset",
                        "ablation_policies"}));
}

/// A figure whose run the test supplies, with one int and one csv flag.
Figure stub(std::function<Report(const Flags&)> run) {
  return {"stub",
          "a stub figure",
          {{"count", 1, "an int flag"},
           {"csv", std::string(), "also write results to CSV"}},
          std::move(run)};
}

TEST(FigureDriverTest, RunThatThrowsLeavesStdoutEmpty) {
  const CliRun run = run_cli(
      stub([](const Flags&) -> Report { throw Error("no such sweep"); }),
      {});
  EXPECT_EQ(run.status, 1);
  EXPECT_EQ(run.out, "");
  EXPECT_NE(run.err.find("no such sweep"), std::string::npos) << run.err;
}

TEST(FigureDriverTest, ViolationsExitOneAfterPrinting) {
  const CliRun run = run_cli(stub([](const Flags&) {
                               Report report;
                               report.header = "header\n";
                               report.violations = 2;
                               return report;
                             }),
                             {});
  EXPECT_EQ(run.status, 1);
  EXPECT_EQ(run.out, "header\n");
  EXPECT_NE(run.err.find("2 bound violation(s)"), std::string::npos)
      << run.err;
}

TEST(FigureDriverTest, OutOfRangeIntFlagIsRejectedBeforeTheRun) {
  bool ran = false;
  const auto figure = stub([&ran](const Flags& flags) {
    ran = true;
    Report report;
    report.header = std::to_string(flags.get<int>("count")) + "\n";
    return report;
  });
  for (const char* count : {"4294967297", "-2147483649"}) {
    const CliRun run = run_cli(figure, {"--count", count});
    EXPECT_EQ(run.status, 1) << count;
    EXPECT_EQ(run.out, "");
    EXPECT_NE(run.err.find("out of range"), std::string::npos) << run.err;
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(run_cli(figure, {"--count", "-2147483648"}).out,
            "-2147483648\n");
}

TEST(FigureDriverTest, UnwritableCsvLeavesStdoutEmpty) {
  const CliRun run = run_cli(
      stub([](const Flags&) { return Report{"header\n", {}, "", 0}; }),
      {"--csv", ::testing::TempDir() + "/no/such/dir/out.csv"});
  EXPECT_EQ(run.status, 1);
  EXPECT_EQ(run.out, "");
}

TEST(FigureDriverTest, InvalidFigureConfigsPrintNothing) {
  const std::vector<std::pair<Figure, std::vector<std::string>>> rejected{
      {fig7_figure(), {"--time-limit", "-1"}},
      {fig7_figure(), {"--time-limit", "0"}},
      {fig7_figure(), {"--solver-nodes", "-1"}},
      {fig7_figure(), {"--solver-nodes", "0"}},
      {fig8_figure(), {"--dags", "4294967297"}},
      {fig10_figure(), {"--dags", "4294967298"}},
      {fig10_figure(), {"--max-devices", "0"}},
      {fig11_figure(), {"--max-units", "0"}},
      {fig11_figure(), {"--unit-vectors", "4294967298,1"}},
      {fig12_figure(), {"--max-devices", "0"}},
      {ablation_figure(), {"--dags", "0"}},
  };
  for (const auto& [figure, args] : rejected) {
    std::vector<std::string> argv = args;
    argv.insert(argv.end(), {"--jobs", "1"});
    const CliRun run = run_cli(figure, argv);
    EXPECT_EQ(run.status, 1) << figure.program << " " << args[0];
    EXPECT_EQ(run.out, "") << figure.program << " " << args[0];
  }
}

}  // namespace
}  // namespace hedra::exp
