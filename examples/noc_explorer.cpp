// noc_explorer: a general-purpose command-line driver over the whole
// library — the tool a downstream user reaches for first.
//
//   $ ./build/examples/noc_explorer topology=mesh scheme=vix rate=0.1
//   $ ./build/examples/noc_explorer scheme=wf pattern=transpose vcs=4 depth=3
//   $ ./build/examples/noc_explorer warmup=5000 measure=20000 csv=out.csv
//   $ ./build/examples/noc_explorer sweep=1 scheme=vix csv=sweep.csv
//
// Keys (all optional): topology=mesh|cmesh|fbfly|torus scheme=if|wf|ap|
// vix|ideal|pc|islip|sparoflo|serenade pattern=uniform|transpose|bitcomp|
// bitrev|tornado|hotspot|incast routing=dor|adaptive_min|fault_aware
// hotspot=<node> (hot node for pattern=hotspot, receiver for
// pattern=incast; default derives an off-center node from the topology)
// fanin=<M> (pattern=incast sender count; default all nodes but the
// receiver)
// rate=<packets/cycle/node> vcs= depth= packet= seed= warmup= measure=
// drain= pipeline=3|5 sweep=0|1 csv=<path> config=<file>
// checkpoint_every=<N> restore=<path>, and the sweep backend keys
// threads= checkpoint= isolate= point_timeout= retries= server=
// (kSweepBackendUsage in src/server/sweep_backend.hpp).
//
// sweep=1 runs the standard rate sweep (0.02 .. saturation, step 0.01) on
// the chosen backend; a single run with server=SOCK asks the daemon for
// its one point. Results never depend on the backend.
//
// Checkpointing: in single-run mode, checkpoint=path checkpoint_every=N
// saves the full simulation state every N cycles (atomic overwrite), and
// restore=path resumes a run from such a file — the resumed run's output
// is bitwise identical to an uninterrupted one. In sweep mode,
// checkpoint=dir caches each completed point's result under the directory,
// so re-running the same command after an interruption only simulates the
// missing points.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/sim_config_args.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "server/sweep_backend.hpp"

using namespace vixnoc;

namespace {

void PrintResult(const NetworkSimConfig& config,
                 const NetworkSimResult& r) {
  std::printf(
      "%-6s %-9s %-10s rate=%.3f | accepted=%.4f ppc (%.1f flits/cyc) "
      "lat=%.1f p99=%.0f maxmin=%.2f%s\n",
      ToString(config.topology).c_str(), ToString(config.scheme).c_str(),
      MakePattern(config.pattern)->Name().c_str(), config.injection_rate,
      r.accepted_ppc, r.accepted_fpc, r.avg_latency, r.p99_latency,
      r.max_min_ratio, r.saturated ? "  [saturated]" : "");
}

std::vector<std::string> CsvRow(const NetworkSimConfig& config,
                                const NetworkSimResult& r) {
  return {ToString(config.topology),
          ToString(config.scheme),
          MakePattern(config.pattern)->Name(),
          std::to_string(config.injection_rate),
          std::to_string(r.accepted_ppc),
          std::to_string(r.accepted_fpc),
          std::to_string(r.avg_latency),
          std::to_string(r.p99_latency),
          std::to_string(r.max_min_ratio),
          std::to_string(r.saturated ? 1 : 0)};
}

}  // namespace

int main(int argc, char** argv) {
  ArgMap cli = ArgMap::Parse(argc, argv);
  ArgMap args;
  // Optional config file; command-line keys override file keys.
  if (cli.Has("config")) {
    args = ArgMap::FromFile(cli.GetString("config", ""));
  }
  args.Merge(cli);
  (void)args.GetString("config", "");  // consumed above

  NetworkSimConfig config;
  if (!SimConfigFromArgs(args, &config)) return 2;
  const bool sweep = args.GetBool("sweep", false);
  const std::string csv_path = args.GetString("csv", "");
  SweepBackendOptions backend_options;
  if (!ParseSweepBackendArgs(args, &backend_options)) return 2;
  config.checkpoint_every =
      static_cast<Cycle>(args.GetInt("checkpoint_every", 0));
  config.restore_path = args.GetString("restore", "");
  // A single run reads checkpoint= as its snapshot file. It builds a
  // backend only for server=, which excludes checkpoint=, so no store
  // directory is ever made at that path.
  if (!sweep) config.checkpoint_path = backend_options.checkpoint;
  if (!config.checkpoint_path.empty() && config.checkpoint_every == 0) {
    config.checkpoint_every = 1'000;  // a sensible default cadence
  }
  args.CheckAllConsumed();

  std::unique_ptr<CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(
        csv_path, std::vector<std::string>{
                      "topology", "scheme", "pattern", "offered_ppc",
                      "accepted_ppc", "accepted_fpc", "avg_latency",
                      "p99_latency", "max_min_ratio", "saturated"});
  }

  const std::vector<NetworkSimConfig> points =
      sweep ? RateSweep(config) : std::vector<NetworkSimConfig>{config};
  std::vector<NetworkSimResult> results;
  if (sweep || !backend_options.server.empty()) {
    try {
      SweepBackend backend(backend_options);
      results = backend.Run(points);
      std::fputs(backend.Summary().c_str(), stdout);
    } catch (const SimError& e) {
      std::fprintf(stderr, "noc_explorer: %s\n", e.what());
      return 1;
    }
    if (!sweep && results[0].outcome.status == SimStatus::kExecFailure) {
      return 1;  // the daemon did not serve the point
    }
  } else {
    results.push_back(RunNetworkSim(config));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    PrintResult(points[i], results[i]);
    if (csv) csv->AddRow(CsvRow(points[i], results[i]));
  }
  if (csv) std::printf("wrote %s\n", csv->path().c_str());
  return 0;
}
