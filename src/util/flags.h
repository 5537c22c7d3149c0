// Command-line flag parsing for the tools and benches.
//
// Declare every flag with flag(...) — name, value placeholder, help text,
// default — then parse(). Unknown flags are rejected with
// std::invalid_argument, usage()/--help text is generated from the
// declarations, and the declared default backs the single-argument
// accessors.
//
// Syntax: --name=value, --name value, bare boolean --name, plus positional
// arguments. A boolean never consumes the next token, so "--trace --csv
// out" parses as two flags. Repeated flags keep the last value
// (last-wins). Numbers read through util/value.h: a malformed value throws
// std::invalid_argument naming the flag and the offending value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tcpdyn::util {

class Flags {
 public:
  // Declares a value flag. `value_name` is the placeholder in the usage
  // text (e.g. "N", "SEC", "PATH"); the default is also the fallback for
  // the one-argument accessors and is shown in --help. Returns *this so
  // declarations chain. Throws std::logic_error on duplicate names.
  Flags& flag(const std::string& name, const std::string& value_name,
              const std::string& help, const std::string& default_value);
  Flags& flag(const std::string& name, const std::string& value_name,
              const std::string& help, const char* default_value);
  Flags& flag(const std::string& name, const std::string& value_name,
              const std::string& help, std::int64_t default_value);
  Flags& flag(const std::string& name, const std::string& value_name,
              const std::string& help, int default_value);
  Flags& flag(const std::string& name, const std::string& value_name,
              const std::string& help, double default_value);
  // Declares a boolean flag (bare --name sets it; --name=false clears it).
  Flags& flag(const std::string& name, const std::string& help,
              bool default_value);

  // Parses argv against the declarations. Throws std::invalid_argument for
  // a flag that was never declared ("unknown flag --x") or a declared value
  // flag with no value. --help is always accepted and sets
  // help_requested(). May be called once.
  void parse(int argc, const char* const* argv);
  void parse(const std::vector<std::string>& args);

  bool help_requested() const { return help_requested_; }

  // Usage text generated from the declarations, one line per flag with its
  // placeholder, help string, and default.
  std::string usage(const std::string& program) const;

  bool has(const std::string& name) const;

  // Typed accessors with explicit fallbacks: get_double takes any number,
  // get_int a whole one an int64 holds (ValueKind kNumber and kInteger).
  // Malformed numeric values throw std::invalid_argument naming the flag
  // and value.
  std::string get(const std::string& name, const std::string& fallback) const;
  double get_double(const std::string& name, double fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  // --name and --name=true/yes are true; --name=false/no is false; any
  // other value is a 0|1 switch (ValueKind::kSwitch), as a .topo ecn=.
  bool get_bool(const std::string& name, bool fallback) const;

  // Single-argument accessors: the declared default is the fallback; for a
  // flag that was never declared, get() falls back to "" and get_bool() to
  // false (the historic behaviour), while the numeric accessors throw
  // std::logic_error (there is no sensible number to invent).
  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Spec {
    std::string name;
    std::string value_name;
    std::string help;
    std::string default_value;
    bool boolean = false;
  };

  Flags& add_spec(Spec spec);
  const Spec* find_spec(const std::string& name) const;
  const Spec& require_spec(const std::string& name) const;

  std::vector<Spec> specs_;  // declaration order, for usage()
  std::map<std::string, std::size_t> spec_index_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool help_requested_ = false;
  bool parsed_ = false;
};

}  // namespace tcpdyn::util
