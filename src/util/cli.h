#pragma once

/// \file cli.h
/// Tiny declarative command-line parser for the bench/example binaries.
/// Supports `--flag`, `--name value` and `--name=value`; prints usage and
/// rejects unknown options so typos in experiment sweeps fail loudly.

#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace hedra {

/// Declarative option set; values are read back after parse().
class ArgParser {
 public:
  /// `program` and `summary` appear in the usage text.
  ArgParser(std::string program, std::string summary);

  /// Registers options.  The returned pointer stays valid for the parser's
  /// lifetime and is filled in by parse().
  std::int64_t* add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help);
  double* add_real(const std::string& name, double default_value,
                   const std::string& help);
  bool* add_flag(const std::string& name, const std::string& help);
  std::string* add_string(const std::string& name,
                          const std::string& default_value,
                          const std::string& help);

  /// Parses argv.  Returns false (after printing usage to `out`) if
  /// `--help` was requested.  Throws hedra::Error on unknown/malformed
  /// options.
  bool parse(int argc, const char* const* argv, std::ostream& out = std::cout);

  /// Usage text.
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kInt, kReal, kFlag, kString };

  struct Option {
    std::string name;
    std::string help;
    Kind kind;
    std::string default_text;
    // Stable storage: options are stored via unique ownership in vectors.
    std::size_t slot;
  };

  Option* find(const std::string& name);
  void assign(Option& opt, const std::string& value);

  std::string program_;
  std::string summary_;
  std::vector<Option> options_;
  // Deques would also work; vectors of unique_ptr give pointer stability.
  std::vector<std::unique_ptr<std::int64_t>> ints_;
  std::vector<std::unique_ptr<double>> reals_;
  std::vector<std::unique_ptr<bool>> flags_;
  std::vector<std::unique_ptr<std::string>> strings_;
};

}  // namespace hedra
