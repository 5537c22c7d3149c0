#include "util/flags.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/value.h"

namespace tcpdyn::util {

Flags& Flags::add_spec(Spec spec) {
  if (parsed_) {
    throw std::logic_error("flag --" + spec.name + " declared after parse()");
  }
  if (spec_index_.contains(spec.name)) {
    throw std::logic_error("flag --" + spec.name + " declared twice");
  }
  spec_index_[spec.name] = specs_.size();
  specs_.push_back(std::move(spec));
  return *this;
}

Flags& Flags::flag(const std::string& name, const std::string& value_name,
                   const std::string& help,
                   const std::string& default_value) {
  return add_spec({name, value_name, help, default_value, /*boolean=*/false});
}

Flags& Flags::flag(const std::string& name, const std::string& value_name,
                   const std::string& help, const char* default_value) {
  return flag(name, value_name, help, std::string(default_value));
}

Flags& Flags::flag(const std::string& name, const std::string& value_name,
                   const std::string& help, std::int64_t default_value) {
  return flag(name, value_name, help, std::to_string(default_value));
}

Flags& Flags::flag(const std::string& name, const std::string& value_name,
                   const std::string& help, int default_value) {
  return flag(name, value_name, help,
              static_cast<std::int64_t>(default_value));
}

Flags& Flags::flag(const std::string& name, const std::string& value_name,
                   const std::string& help, double default_value) {
  std::ostringstream os;
  os << default_value;
  return flag(name, value_name, help, os.str());
}

Flags& Flags::flag(const std::string& name, const std::string& help,
                   bool default_value) {
  return add_spec({name, "", help, default_value ? "true" : "false",
                   /*boolean=*/true});
}

void Flags::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

void Flags::parse(const std::vector<std::string>& args) {
  if (parsed_) throw std::logic_error("Flags::parse called twice");
  parsed_ = true;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string name = eq == std::string::npos ? body : body.substr(0, eq);
    if (name == "help") {
      help_requested_ = true;
      continue;
    }
    const Spec* spec = find_spec(name);
    if (spec == nullptr) {
      throw std::invalid_argument("unknown flag --" + name + " (see --help)");
    }
    if (eq != std::string::npos) {
      values_[name] = body.substr(eq + 1);
    } else if (spec->boolean) {
      // A boolean never consumes the next token.
      values_[name] = "true";
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      values_[name] = args[i + 1];
      ++i;
    } else {
      throw std::invalid_argument("flag --" + name + " requires a " +
                                  (spec->value_name.empty()
                                       ? std::string("value")
                                       : spec->value_name) +
                                  " value");
    }
  }
}

const Flags::Spec* Flags::find_spec(const std::string& name) const {
  auto it = spec_index_.find(name);
  return it == spec_index_.end() ? nullptr : &specs_[it->second];
}

const Flags::Spec& Flags::require_spec(const std::string& name) const {
  const Spec* spec = find_spec(name);
  if (spec == nullptr) {
    throw std::logic_error("flag --" + name + " was never declared");
  }
  return *spec;
}

std::string Flags::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [options]\n";
  // Left column: "--name VALUE", padded to align the help text.
  std::vector<std::string> left;
  std::size_t width = std::string("--help").size();
  for (const Spec& s : specs_) {
    std::string col = "--" + s.name;
    if (!s.value_name.empty()) col += " " + s.value_name;
    width = std::max(width, col.size());
    left.push_back(std::move(col));
  }
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const Spec& s = specs_[i];
    os << "  " << left[i] << std::string(width - left[i].size() + 2, ' ')
       << s.help;
    if (!s.boolean && !s.default_value.empty()) {
      os << " (default " << s.default_value << ")";
    } else if (s.boolean && s.default_value == "true") {
      os << " (default on)";
    }
    os << "\n";
  }
  os << "  --help" << std::string(width - 6 + 2, ' ') << "show this help\n";
  return os.str();
}

bool Flags::has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::get_double(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return read(ValueKind::kNumber, it->second, "--" + name);
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return read_as<std::int64_t>(ValueKind::kInteger, it->second, "--" + name);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "yes") return true;
  if (v == "false" || v == "no") return false;
  return read(ValueKind::kSwitch, v, "--" + name) != 0.0;
}

std::string Flags::get(const std::string& name) const {
  const Spec* s = find_spec(name);
  return get(name, s == nullptr ? std::string() : s->default_value);
}

double Flags::get_double(const std::string& name) const {
  const Spec& s = require_spec(name);
  if (!has(name) && s.default_value.empty()) return 0.0;
  return read(ValueKind::kNumber, get(name, s.default_value), "--" + name);
}

std::int64_t Flags::get_int(const std::string& name) const {
  const Spec& s = require_spec(name);
  if (!has(name) && s.default_value.empty()) return 0;
  return read_as<std::int64_t>(ValueKind::kInteger,
                               get(name, s.default_value), "--" + name);
}

bool Flags::get_bool(const std::string& name) const {
  const Spec* s = find_spec(name);
  return get_bool(name, s != nullptr && s->default_value == "true");
}

}  // namespace tcpdyn::util
