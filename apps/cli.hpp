// cli.hpp: the argv reader and exit-code table every command-line tool
// shares.  Standard library and header-only util/number.hpp only, so
// wormnet-explain can stay unlinked.
//
// A tool declares one flag table; parsing and --help both come from it.
// Errors go to stderr as one line ("ARGV0: unknown option X",
// "ARGV0: X needs a value", "ARGV0: bad value for X: V") and exit 2.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "wormnet/util/number.hpp"

namespace wormnet::cli {

/// The exit-code table (README "Command-line tools").  What counts as a
/// finding is each tool's own: a lint finding, a refuted certificate, ...
inline constexpr int kClean = 0;     ///< ran, and found nothing to report
inline constexpr int kFinding = 1;   ///< ran, and found something
inline constexpr int kBadInput = 2;  ///< usage error or unusable input

/// One row of a tool's flag table.  `value` names the flag's argument in
/// --help ("SPEC"); an empty one makes the flag a switch.  A '\n' in `help`
/// starts an indented continuation line.
struct Flag {
  std::string_view name;
  std::string_view value;
  std::string_view help;
};

/// What a tool accepts.  `forms` holds the usage lines after the program
/// name, '\n'-separated; `notes` is printed between them and the options.
struct Spec {
  std::string_view forms;
  std::span<const Flag> flags;
  std::string_view notes = {};
  bool positional = false;  ///< accepts non-option arguments
};

class Args {
 public:
  /// Reads argv[1..] against `spec`.  After --help (printed to stdout) or
  /// a bad argument (one line on stderr), exit_code holds kClean or
  /// kBadInput and the tool returns it.
  Args(int argc, char** argv, const Spec& spec)
      : argv0_(argv[0]), spec_(spec) {
    for (int i = 1; i < argc && !exit_code; ++i) {
      const std::string arg = argv[i];
      const auto flag = std::find_if(
          spec.flags.begin(), spec.flags.end(),
          [&](const Flag& f) { return f.name == arg; });
      if (arg == "--help" || arg == "-h") {
        print_help();
        exit_code = kClean;
      } else if (arg.size() < 2 || arg[0] != '-') {
        if (spec.positional) {
          positional_.push_back(arg);
        } else {
          exit_code = error("unexpected argument " + arg);
        }
      } else if (flag == spec.flags.end()) {
        exit_code = error("unknown option " + arg);
      } else if (flag->value.empty()) {
        values_[arg];
      } else if (i + 1 == argc ||
                 std::string_view(argv[i + 1]).starts_with("--")) {
        exit_code = error(arg + " needs a value");
      } else {
        values_[arg] = argv[++i];
      }
    }
  }

  /// Set when parsing decided the exit status.
  std::optional<int> exit_code;

  [[nodiscard]] bool has(std::string_view flag) const {
    return values_.contains(flag);
  }

  /// The flag's value, or `fallback` when it was not given.
  [[nodiscard]] std::string value(std::string_view flag,
                                  std::string fallback = {}) const {
    const auto it = values_.find(flag);
    return it == values_.end() ? fallback : it->second;
  }

  /// Stores the flag's value in `out` when it was given, read by the one
  /// strict number reader (util/number.hpp): the whole value must be a
  /// number that fits T, so an unsigned T takes decimal digits only (no
  /// sign, space or suffix) and a floating T a finite value.  Otherwise
  /// returns false after "bad value for X: V".
  template <class T>
  [[nodiscard]] bool number(std::string_view flag, T& out) const {
    if (!has(flag)) return true;
    const std::string text = value(flag);
    const auto v = util::read_number<T>(text);
    if (!v) {
      error("bad value for " + std::string(flag) + ": " + text);
      return false;
    }
    out = v.value;
    return true;
  }

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Prints "ARGV0: message" to stderr and returns kBadInput.
  int error(const std::string& message) const {
    std::cerr << argv0_ << ": " << message << "\n";
    return kBadInput;
  }

 private:
  void print_help() const {
    const char* lead = "usage: ";
    std::string_view forms = spec_.forms;
    for (std::size_t cut = 0; cut != std::string_view::npos; lead = "       ") {
      cut = forms.find('\n');
      std::cout << lead << argv0_ << " " << forms.substr(0, cut) << "\n";
      forms.remove_prefix(cut == std::string_view::npos ? 0 : cut + 1);
    }
    if (!spec_.notes.empty()) std::cout << "\n" << spec_.notes;
    if (!spec_.flags.empty()) std::cout << "\noptions:\n";
    constexpr std::size_t kColumn = 22;
    for (const Flag& flag : spec_.flags) {
      std::string head = "  ";
      head.append(flag.name);
      if (!flag.value.empty()) head.append(" ").append(flag.value);
      head.resize(std::max(head.size() + 1, kColumn), ' ');
      std::cout << head;
      for (const char c : flag.help) {
        std::cout << c << (c == '\n' ? std::string(kColumn, ' ') : "");
      }
      std::cout << "\n";
    }
    std::cout << "\nexit: 0 = clean, 1 = finding, 2 = bad input\n";
  }

  std::string argv0_;
  Spec spec_;
  std::map<std::string, std::string, std::less<>> values_;
  std::vector<std::string> positional_;
};

}  // namespace wormnet::cli
