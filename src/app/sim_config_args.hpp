// Shared key=value -> NetworkSimConfig parsing for the CLI surfaces
// (examples/noc_explorer and src/app/vixnoc_client), so "scheme=vix
// rate=0.1" means byte-for-byte the same simulation point everywhere —
// which is what makes content-addressed result sharing between the tools
// actually hit.
#pragma once

#include <vector>

#include "common/cli.hpp"
#include "sim/network_sim.hpp"

namespace vixnoc {

/// Consumes the simulation-point keys from `args` into `*config`, one per
/// config field table entry that carries a CLI key (sim/config_fields.hpp):
///
///   topology=mesh|cmesh|fbfly|torus scheme=if|wf|ap|vix|ideal|pc|islip|
///   sparoflo|serenade pattern=uniform|transpose|bitcomp|bitrev|tornado|
///   hotspot|incast routing=<registered plugin> hotspot=<node> fanin=<M>
///   vcs= depth= packet= rate= seed= warmup= measure= drain= pipeline=3|5
///
/// Defaults match the historical noc_explorer ones (mesh/vix/uniform/dor,
/// rate=0.1, vcs=6, depth=5, packet=4, seed=1, warmup=5000, measure=15000,
/// drain=2000, pipeline=3) when `*config` starts default-constructed.
/// Returns false after printing a diagnostic to stderr when a name is
/// unrecognized (caller exits 2); deeper validation stays with
/// ValidateNetworkSimConfig at run time.
bool SimConfigFromArgs(const ArgMap& args, NetworkSimConfig* config);

/// The standard rate sweep of the CLI tools: `config` at injection rates
/// 0.02, 0.03, ... up to saturation (MaxInjectionRate), one point each.
/// The rates are accumulated, not multiplied out, so every tool asks for
/// the same bytes and the result store shares their points.
std::vector<NetworkSimConfig> RateSweep(NetworkSimConfig config);

}  // namespace vixnoc
