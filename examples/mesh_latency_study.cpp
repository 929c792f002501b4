// Latency-vs-load study: sweeps injection rate on a chosen topology and
// prints the classic latency/throughput curves for several allocation
// schemes, plus each scheme's saturation point.
//
//   $ ./build/examples/mesh_latency_study
//   $ ./build/examples/mesh_latency_study topology=fbfly threads=4
//
// Keys (all optional): topology=mesh|cmesh|fbfly|torus threads=<N>
//
// Demonstrates: topology selection, scheme sweeps, saturation detection,
// and running the whole rate x scheme grid concurrently on a SweepRunner
// (threads=0 means $VIXNOC_THREADS if set, else all cores; results are
// identical to a serial run regardless of thread count).
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "sim/sweep.hpp"

using namespace vixnoc;

int main(int argc, char** argv) {
  ArgMap args = ArgMap::Parse(argc, argv);
  TopologyKind topo = TopologyKind::kMesh;
  if (!ParseTopologyKind(args.GetString("topology", "mesh"), &topo)) {
    std::fprintf(stderr, "unrecognized topology name\n");
    return 2;
  }
  const int threads =
      ResolveThreadCount(static_cast<int>(args.GetInt("threads", 0)));
  args.CheckAllConsumed();

  const std::vector<AllocScheme> schemes = {
      AllocScheme::kInputFirst, AllocScheme::kWavefront, AllocScheme::kVix};
  std::vector<double> rates;
  for (double rate = 0.02; rate <= 0.205; rate += 0.02) rates.push_back(rate);

  // One grid point per rate x scheme, run concurrently; results come back
  // in submission order, so results[r * schemes.size() + s] is (rate r,
  // scheme s).
  std::vector<NetworkSimConfig> points;
  for (double rate : rates) {
    for (AllocScheme scheme : schemes) {
      NetworkSimConfig c;
      c.topology = topo;
      c.scheme = scheme;
      c.injection_rate = rate;
      c.warmup = 3'000;
      c.measure = 10'000;
      c.drain = 2'000;
      points.push_back(c);
    }
  }
  const std::vector<NetworkSimResult> results = RunSweep(points, threads);

  std::printf("latency vs offered load, %s (64 nodes, uniform random)\n\n",
              ToString(topo).c_str());
  std::printf("%8s", "offered");
  for (AllocScheme s : schemes) std::printf(" %12s", ToString(s).c_str());
  std::printf("   [avg packet latency, cycles]\n");

  std::vector<double> saturation(schemes.size(), 0.0);
  for (std::size_t ri = 0; ri < rates.size(); ++ri) {
    std::printf("%8.3f", rates[ri]);
    for (std::size_t i = 0; i < schemes.size(); ++i) {
      const NetworkSimResult& r = results[ri * schemes.size() + i];
      if (r.saturated) {
        std::printf(" %12s", "saturated");
      } else {
        std::printf(" %12.1f", r.avg_latency);
        saturation[i] = std::max(saturation[i], r.accepted_ppc);
      }
    }
    std::printf("\n");
  }

  std::printf("\nhighest un-saturated accepted load per scheme:\n");
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    std::printf("  %-4s %.4f packets/cycle/node\n",
                ToString(schemes[i]).c_str(), saturation[i]);
  }
  return 0;
}
