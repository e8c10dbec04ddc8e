#include "util/env.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include "util/check.h"
#include "util/strings.h"

namespace ixp::env {

namespace {

// The single source of truth for which IXP_* knobs exist.  README's
// env-knob table and this table are cross-checked by tools/check_docs.sh;
// add the knob to both or the docs lint fails.
const std::vector<Knob> kKnobs = {
    {"IXP_ROUND_MINUTES", "probe round interval in minutes for bench/example drivers"},
    {"IXP_FAST", "shrink bench/example campaigns for smoke runs (any value but 0)"},
    {"IXP_JOBS", "default worker count for --jobs when the flag is absent"},
    {"IXP_PARANOID", "enable expensive IXP_CHECK invariants (any value but 0)"},
    {"IXP_FAULT_PLAN", "default fault-plan spec for the chaos subcommand"},
    {"IXP_METRICS", "default --metrics-out path for metrics-capable subcommands"},
};

struct Cache {
  std::mutex mu;
  std::map<std::string, std::optional<std::string>> values;
};

Cache& cache() {
  static Cache c;
  return c;
}

bool known(const char* name) {
  for (const Knob& k : kKnobs) {
    if (std::string_view(k.name) == name) return true;
  }
  return false;
}

}  // namespace

const std::vector<Knob>& known_knobs() { return kKnobs; }

std::optional<std::string> string_value(const char* name) {
  if (!known(name)) {
    detail::check_failed(__FILE__, __LINE__, "env::known(name)",
                         strformat("undeclared env knob %s: add it to kKnobs in "
                                   "src/util/env.cc and to README's knob table",
                                   name));
  }
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  auto it = c.values.find(name);
  if (it == c.values.end()) {
    const char* raw = std::getenv(name);
    it = c.values
             .emplace(name, raw ? std::optional<std::string>(raw) : std::nullopt)
             .first;
  }
  return it->second;
}

bool flag(const char* name) {
  const std::optional<std::string> v = string_value(name);
  return v.has_value() && *v != "0";
}

std::optional<std::int64_t> int_value(const char* name) {
  const std::optional<double> d = double_value(name);
  if (!d.has_value()) return std::nullopt;
  return static_cast<std::int64_t>(*d);
}

std::optional<double> double_value(const char* name) {
  const std::optional<std::string> v = string_value(name);
  if (!v.has_value()) return std::nullopt;
  double d = 0.0;
  if (!parse_double(*v, d)) return std::nullopt;
  return d;
}

void refresh_for_tests() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.mu);
  c.values.clear();
}

}  // namespace ixp::env
