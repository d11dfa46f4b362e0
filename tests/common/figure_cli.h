#pragma once

/// \file figure_cli.h
/// Runs a figure program in-process through exp::run_figure, as its
/// binary would run with `args` after the program name.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/figure.h"

namespace hedra::testing {

struct CliRun {
  int status = 0;
  std::string out;
  std::string err;
};

inline CliRun run_cli(const exp::Figure& figure,
                      const std::vector<std::string>& args) {
  std::vector<const char*> argv{figure.program.c_str()};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  std::ostringstream out;
  std::ostringstream err;
  const int status = exp::run_figure(figure, static_cast<int>(argv.size()),
                                     argv.data(), out, err);
  return {status, out.str(), err.str()};
}

/// The lines of the text file at `path`.
inline std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

}  // namespace hedra::testing
