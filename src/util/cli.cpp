#include "util/cli.h"

#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace hedra {

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

std::int64_t* ArgParser::add_int(const std::string& name,
                                 std::int64_t default_value,
                                 const std::string& help) {
  HEDRA_REQUIRE(find(name) == nullptr, "duplicate option --" + name);
  ints_.push_back(std::make_unique<std::int64_t>(default_value));
  options_.push_back(Option{name, help, Kind::kInt,
                            std::to_string(default_value), ints_.size() - 1});
  return ints_.back().get();
}

double* ArgParser::add_real(const std::string& name, double default_value,
                            const std::string& help) {
  HEDRA_REQUIRE(find(name) == nullptr, "duplicate option --" + name);
  reals_.push_back(std::make_unique<double>(default_value));
  options_.push_back(Option{name, help, Kind::kReal,
                            format_double(default_value, 4),
                            reals_.size() - 1});
  return reals_.back().get();
}

bool* ArgParser::add_flag(const std::string& name, const std::string& help) {
  HEDRA_REQUIRE(find(name) == nullptr, "duplicate option --" + name);
  flags_.push_back(std::make_unique<bool>(false));
  options_.push_back(Option{name, help, Kind::kFlag, "false",
                            flags_.size() - 1});
  return flags_.back().get();
}

std::string* ArgParser::add_string(const std::string& name,
                                   const std::string& default_value,
                                   const std::string& help) {
  HEDRA_REQUIRE(find(name) == nullptr, "duplicate option --" + name);
  strings_.push_back(std::make_unique<std::string>(default_value));
  options_.push_back(
      Option{name, help, Kind::kString, default_value, strings_.size() - 1});
  return strings_.back().get();
}

ArgParser::Option* ArgParser::find(const std::string& name) {
  for (auto& opt : options_) {
    if (opt.name == name) return &opt;
  }
  return nullptr;
}

void ArgParser::assign(Option& opt, const std::string& value) {
  switch (opt.kind) {
    case Kind::kInt:
      *ints_[opt.slot] = parse_int(value);
      return;
    case Kind::kReal:
      *reals_[opt.slot] = parse_real(value);
      return;
    case Kind::kString:
      *strings_[opt.slot] = value;
      return;
    case Kind::kFlag:
      HEDRA_REQUIRE(value == "true" || value == "false",
                    "flag --" + opt.name + " takes no value");
      *flags_[opt.slot] = (value == "true");
      return;
  }
}

bool ArgParser::parse(int argc, const char* const* argv, std::ostream& out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out << usage();
      return false;
    }
    HEDRA_REQUIRE(starts_with(arg, "--"),
                  "unexpected positional argument '" + arg + "'");
    arg.erase(0, 2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.erase(eq);
      has_value = true;
    }
    Option* opt = find(arg);
    HEDRA_REQUIRE(opt != nullptr, "unknown option --" + arg);
    if (opt->kind == Kind::kFlag && !has_value) {
      *flags_[opt->slot] = true;
      continue;
    }
    if (!has_value) {
      HEDRA_REQUIRE(i + 1 < argc, "option --" + arg + " expects a value");
      value = argv[++i];
    }
    assign(*opt, value);
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << summary_ << "\n\nOptions:\n";
  for (const auto& opt : options_) {
    os << "  --" << opt.name;
    if (opt.kind != Kind::kFlag) os << " <" << opt.default_text << ">";
    os << "\n      " << opt.help << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

}  // namespace hedra
