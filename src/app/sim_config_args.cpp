#include "app/sim_config_args.hpp"

#include <cstdio>
#include <type_traits>

#include "common/types.hpp"
#include "routing/registry.hpp"
#include "sim/config_fields.hpp"
#include "traffic/patterns.hpp"

namespace vixnoc {

namespace {

// How each field type reads its key. Numbers go through ArgMap, which
// exits 2 on malformed text; an unknown name, or a type with no CLI form,
// returns false.
template <class T>
bool ParseArg(const ArgMap&, const char*, T*) {
  return false;
}
template <class T>
  requires std::is_arithmetic_v<T>
bool ParseArg(const ArgMap& args, const char* key, T* v) {
  if constexpr (std::is_floating_point_v<T>) {
    *v = args.GetDouble(key, *v);
  } else {
    *v = static_cast<T>(args.GetInt(key, static_cast<std::int64_t>(*v)));
  }
  return true;
}
bool ParseArg(const ArgMap& args, const char* key, std::string* v) {
  *v = args.GetString(key, *v);
  return true;
}
bool ParseArg(const ArgMap& args, const char* key, TopologyKind* v) {
  return !args.Has(key) || ParseTopologyKind(args.GetString(key, ""), v);
}
bool ParseArg(const ArgMap& args, const char* key, AllocScheme* v) {
  return !args.Has(key) || ParseAllocScheme(args.GetString(key, ""), v);
}
bool ParseArg(const ArgMap& args, const char* key, PatternKind* v) {
  return !args.Has(key) || ParsePatternKind(args.GetString(key, ""), v);
}

}  // namespace

bool SimConfigFromArgs(const ArgMap& args, NetworkSimConfig* config) {
  // The documented CLI defaults that differ from NetworkSimConfig's own.
  config->scheme = AllocScheme::kVix;
  config->injection_rate = 0.1;
  config->warmup = 5'000;
  config->measure = 15'000;
  config->drain = 2'000;
  bool ok = true;
  VisitNetworkSimConfig(*config, [&](const ConfigField& f, auto& value) {
    if (ok && f.cli_key != nullptr && !ParseArg(args, f.cli_key, &value)) {
      std::fprintf(stderr, "unrecognized %s name '%s'\n", f.cli_key,
                   args.GetString(f.cli_key, "").c_str());
      ok = false;
    }
  });
  if (ok && !IsRegisteredRouting(config->routing)) {
    std::fprintf(stderr, "routing=%s is not a registered plugin (%s)\n",
                 config->routing.c_str(),
                 RegisteredRoutingNamesJoined().c_str());
    return false;
  }
  return ok;
}

}  // namespace vixnoc
