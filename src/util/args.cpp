#include "util/args.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace origin::util {

namespace {

[[noreturn]] void bad_value(const std::string& name, const std::string& text) {
  throw std::invalid_argument("bad value for --" + name + ": '" + text + "'");
}

// strtoul/strtoull accept a sign and negate ("-1" parses as the largest
// value), so unsigned targets refuse any '-' up front; double targets
// refuse the "nan"/"inf" spellings strtod accepts.
template <typename T, typename Convert>
std::function<void(const std::string&)> numeric_assign(const std::string& name,
                                                       T* target,
                                                       Convert convert) {
  return [name, target, convert](const std::string& text) {
    if constexpr (std::is_unsigned_v<T>) {
      if (text.find('-') != std::string::npos) bad_value(name, text);
    }
    char* end = nullptr;
    errno = 0;
    const auto value = convert(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0' || errno != 0) {
      bad_value(name, text);
    }
    if constexpr (std::is_floating_point_v<T>) {
      if (!std::isfinite(value)) bad_value(name, text);
    }
    *target = static_cast<T>(value);
    if (static_cast<decltype(value)>(*target) != value) bad_value(name, text);
  };
}

}  // namespace

ArgParser::ArgParser(std::string tool, std::string summary)
    : tool_(std::move(tool)), summary_(std::move(summary)) {}

void ArgParser::add_flag(const std::string& name, const std::string& help,
                         std::string default_repr, bool takes_value,
                         std::function<void(const std::string&)> assign) {
  Flag flag;
  flag.name = name;
  flag.help = help;
  flag.default_repr = std::move(default_repr);
  flag.takes_value = takes_value;
  flag.assign = std::move(assign);
  flags_.push_back(std::move(flag));
}

void ArgParser::add(const std::string& name, std::string* target,
                    const std::string& help) {
  add_flag(name, help, *target, true,
           [target](const std::string& text) { *target = text; });
}

void ArgParser::add(const std::string& name, int* target,
                    const std::string& help) {
  add_flag(name, help, std::to_string(*target), true,
           numeric_assign(name, target, [](const char* s, char** end) {
             return std::strtol(s, end, 10);
           }));
}

void ArgParser::add(const std::string& name, unsigned* target,
                    const std::string& help) {
  add_flag(name, help, std::to_string(*target), true,
           numeric_assign(name, target, [](const char* s, char** end) {
             return std::strtoul(s, end, 10);
           }));
}

void ArgParser::add(const std::string& name, std::uint64_t* target,
                    const std::string& help) {
  add_flag(name, help, std::to_string(*target), true,
           numeric_assign(name, target, [](const char* s, char** end) {
             return std::strtoull(s, end, 10);
           }));
}

void ArgParser::add(const std::string& name, double* target,
                    const std::string& help) {
  std::ostringstream repr;
  repr << *target;
  add_flag(name, help, repr.str(), true,
           numeric_assign(name, target, [](const char* s, char** end) {
             return std::strtod(s, end);
           }));
}

void ArgParser::add_switch(const std::string& name, bool* target,
                           const std::string& help) {
  add_flag(name, help, *target ? "on" : "off", false,
           [target](const std::string&) { *target = true; });
}

bool ArgParser::parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (token.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument '" + token + "'");
    }
    std::string name = token.substr(2);
    std::string value;
    bool has_value = false;
    const std::size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Flag* match = nullptr;
    for (const Flag& flag : flags_) {
      if (flag.name == name) {
        match = &flag;
        break;
      }
    }
    if (match == nullptr) {
      throw std::invalid_argument("unknown flag '--" + name + "'");
    }
    if (match->takes_value && !has_value) {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--" + name + " expects a value");
      }
      value = argv[++i];
    } else if (!match->takes_value && has_value) {
      throw std::invalid_argument("--" + name + " takes no value");
    }
    match->assign(value);
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << tool_ << " — " << summary_ << "\n\nFlags:\n";
  for (const Flag& flag : flags_) {
    std::string left = "  --" + flag.name;
    if (flag.takes_value) left += " <value>";
    os << left;
    for (std::size_t pad = left.size(); pad < 28; ++pad) os << ' ';
    os << flag.help << " (default: " << flag.default_repr << ")\n";
  }
  os << "  --help                    print this message\n";
  return os.str();
}

}  // namespace origin::util
