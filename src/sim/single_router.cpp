#include "sim/single_router.hpp"

#include <vector>

namespace vixnoc {

namespace {

/// Per-cycle upper bound on grants: one grant per requested output port
/// (every output with at least one requesting VC can be served when inputs
/// are unconstrained — the paper's definition of ideal switch allocation).
int IdealGrants(const std::vector<PortId>& out_port, int num_outports) {
  std::vector<bool> requested(static_cast<std::size_t>(num_outports), false);
  int count = 0;
  for (const PortId out : out_port) {
    if (!requested[out]) {
      requested[out] = true;
      ++count;
    }
  }
  return count;
}

}  // namespace

SingleRouterResult RunSingleRouter(const SingleRouterConfig& config) {
  SwitchGeometry geom;
  geom.num_inports = config.radix;
  geom.num_outports = config.radix;
  geom.num_vcs = config.num_vcs;
  geom.num_vins = VirtualInputsForScheme(config.scheme, config.num_vcs);
  // Randomized allocators draw from a stream distinct from the traffic
  // RNG below (same base seed, different mixing constant).
  auto allocator =
      MakeSwitchAllocator(config.scheme, geom, config.arbiter,
                          config.seed + 0xd1b54a32d192ed03ull);

  Rng rng(config.seed);

  // VC state, indexed in_port * num_vcs + vc: remaining flits and
  // destination output of the current packet. Every VC requests the
  // switch every cycle, so every ready bit stays set and the request
  // view reads the destinations in place.
  const int total = config.radix * config.num_vcs;
  std::vector<int> remaining(static_cast<std::size_t>(total));
  std::vector<PortId> out_port(static_cast<std::size_t>(total));
  auto refill = [&](int idx) {
    remaining[idx] = config.packet_size;
    out_port[idx] = static_cast<PortId>(rng.NextBounded(config.radix));
  };
  for (int idx = 0; idx < total; ++idx) refill(idx);
  std::vector<std::uint64_t> ready(
      static_cast<std::size_t>(bits::WordCount(total)));
  BitView(ready.data(), total).SetAll();
  const SwitchRequestView requests{ready.data(), out_port.data(),
                                   config.radix, config.num_vcs};

  std::vector<SaGrant> grants;
  SingleRouterResult result;

  for (Cycle t = 0; t < config.cycles; ++t) {
    result.total_ideal +=
        static_cast<std::uint64_t>(IdealGrants(out_port, config.radix));

    allocator->Allocate(requests, &grants);
    VIXNOC_DCHECK(GrantsAreLegal(geom, requests, grants));
    result.total_grants += grants.size();
    for (const SaGrant& g : grants) {
      const int idx = g.in_port * config.num_vcs + g.vc;
      if (--remaining[idx] == 0) refill(idx);
    }
  }

  result.flits_per_cycle = static_cast<double>(result.total_grants) /
                           static_cast<double>(config.cycles);
  result.matching_efficiency =
      result.total_ideal > 0
          ? static_cast<double>(result.total_grants) /
                static_cast<double>(result.total_ideal)
          : 0.0;
  return result;
}

}  // namespace vixnoc
