#include "util/options.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace lazygraph {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw std::invalid_argument("--" + key + ": expected " + expected +
                              ", got '" + value + "'");
}

}  // namespace

Options::Options(int argc, const char* const* argv,
                 std::initializer_list<const char*> known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    bool declared = false;
    for (const char* k : known) declared = declared || key == k;
    if (!declared) throw std::invalid_argument("unknown flag --" + key);
    kv_[key] = eq == std::string::npos ? "" : arg.substr(eq + 1);
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

const std::string* Options::value(const std::string& key) const {
  const auto it = kv_.find(key);
  return it == kv_.end() || it->second.empty() ? nullptr : &it->second;
}

std::string Options::get(const std::string& key, const std::string& def) const {
  const std::string* v = value(key);
  return v ? *v : def;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t def) const {
  const std::string* v = value(key);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const long long r = std::strtoll(v->c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) bad_value(key, *v, "an integer");
  return r;
}

double Options::get_double(const std::string& key, double def) const {
  const std::string* v = value(key);
  if (!v) return def;
  char* end = nullptr;
  errno = 0;
  const double r = std::strtod(v->c_str(), &end);
  if (*end != '\0' || errno == ERANGE) bad_value(key, *v, "a number");
  return r;
}

bool Options::get_bool(const std::string& key, bool def) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  bad_value(key, v, "true or false");
}

}  // namespace lazygraph
