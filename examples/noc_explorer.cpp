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
// drain= pipeline=3|5 sweep=0|1 csv=<path> threads=<N>
// checkpoint=<path> checkpoint_every=<N> restore=<path>
// isolate=thread|process point_timeout=<seconds> retries=<N>
// server=<socket>
//
// server=SOCK sends every point to a running vixnocd daemon instead of
// simulating locally: hits in the daemon's content-addressed store come
// back without any computation, misses are computed once daemon-side no
// matter how many clients ask. Mutually exclusive with checkpoint= and
// isolate=process (the daemon owns the cache and the compute pool).
//
// threads=N sets the SweepRunner worker count for sweep=1 (default 0 =
// $VIXNOC_THREADS if set, else all cores); results are identical to a
// serial sweep regardless of thread count.
//
// isolate=process runs each sweep point in a vixnoc_sweep_worker
// subprocess via SweepCoordinator: a point that segfaults, aborts, or
// hangs past point_timeout= seconds is killed, classified, and retried
// up to retries= times with exponential backoff; the rest of the sweep
// always completes, and surviving points stay bitwise identical to the
// in-process path.
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
#include <optional>
#include <utility>
#include <vector>

#include "app/sim_config_args.hpp"
#include "common/cli.hpp"
#include "common/csv.hpp"
#include "exec/coordinator.hpp"
#include "server/client.hpp"
#include "sim/sweep.hpp"
#include "store/result_store.hpp"

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
  const int threads =
      ResolveThreadCount(static_cast<int>(args.GetInt("threads", 0)));
  const std::string checkpoint = args.GetString("checkpoint", "");
  const std::string isolate = args.GetString("isolate", "thread");
  if (isolate != "thread" && isolate != "process") {
    std::fprintf(stderr, "isolate=%s is not 'thread' or 'process'\n",
                 isolate.c_str());
    return 2;
  }
  const double point_timeout = args.GetDouble("point_timeout", 0.0);
  const int retries = static_cast<int>(args.GetInt("retries", 2));
  const std::string server = args.GetString("server", "");
  if (!server.empty() && (!checkpoint.empty() || isolate == "process")) {
    std::fprintf(stderr,
                 "server= is mutually exclusive with checkpoint= and "
                 "isolate=process (the daemon owns cache and compute)\n");
    return 2;
  }
  config.checkpoint_every =
      static_cast<Cycle>(args.GetInt("checkpoint_every", 0));
  config.restore_path = args.GetString("restore", "");
  if (!sweep) config.checkpoint_path = checkpoint;
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

  if (sweep) {
    std::vector<NetworkSimConfig> points;
    for (double rate = 0.02; rate <= config.MaxInjectionRate() + 1e-9;
         rate += 0.01) {
      config.injection_rate = rate;
      points.push_back(config);
    }
    std::vector<NetworkSimResult> results;
    // Local backends' provenance: each slot's origin and the cache entries
    // found defective and re-run.
    std::vector<PointOrigin> origins;
    std::size_t defective = 0;
    if (!server.empty()) {
      SimClient client(server, 10.0);
      std::vector<PointReply> replies =
          client.BatchWithRetry(points).replies;
      std::size_t hits = 0, computed = 0, coalesced = 0;
      results.resize(points.size());
      for (std::size_t i = 0; i < points.size(); ++i) {
        PointReply& reply = replies[i];
        if (reply.status != ServeStatus::kOk) {
          std::fprintf(stderr, "point %zu failed daemon-side: %s\n", i,
                       reply.message.c_str());
          results[i].outcome.status = SimStatus::kExecFailure;
          results[i].outcome.message = reply.message;
          continue;
        }
        results[i] = std::move(reply.result);
        hits += reply.source == ServeSource::kStore;
        computed += reply.source == ServeSource::kComputed;
        coalesced += reply.source == ServeSource::kCoalesced;
      }
      std::printf("served by %s: %zu store hits, %zu computed, "
                  "%zu coalesced\n",
                  server.c_str(), hits, computed, coalesced);
    } else if (isolate == "process") {
      ExecPolicy policy;
      policy.num_workers = threads;
      policy.point_timeout_seconds = point_timeout;
      policy.max_retries = retries;
      if (!checkpoint.empty()) {
        policy.cache = std::make_shared<ResultStore>(checkpoint);
      }
      SweepExecResult exec = SweepCoordinator(policy).Run(points);
      results = std::move(exec.results);
      origins = std::move(exec.origins);
      defective = exec.defective_cache_points;
      if (exec.crashes + exec.timeouts + exec.bad_frames +
              exec.spawn_failures >
          0) {
        std::printf(
            "exec: %llu crash(es), %llu timeout(s), %llu bad frame(s), "
            "%llu spawn failure(s); %llu retr%s, %llu point(s) exhausted, "
            "%llu ran in-process\n",
            static_cast<unsigned long long>(exec.crashes),
            static_cast<unsigned long long>(exec.timeouts),
            static_cast<unsigned long long>(exec.bad_frames),
            static_cast<unsigned long long>(exec.spawn_failures),
            static_cast<unsigned long long>(exec.retries),
            exec.retries == 1 ? "y" : "ies",
            static_cast<unsigned long long>(exec.exhausted_points),
            static_cast<unsigned long long>(exec.fallback_points));
      }
    } else {
      SweepRunner runner(threads);
      if (!checkpoint.empty()) {
        runner.SetCache(std::make_shared<ResultStore>(checkpoint));
      }
      results = runner.Run(points);
      origins = runner.origins();
      defective = runner.defective_cache_points();
    }
    const std::size_t resumed = CountOrigin(origins, PointOrigin::kCache);
    if (resumed > 0) {
      std::printf("resumed %zu/%zu points from %s\n", resumed, points.size(),
                  checkpoint.c_str());
    }
    if (defective > 0) {
      std::printf("re-ran %zu point(s) whose cache entries were defective\n",
                  defective);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      PrintResult(points[i], results[i]);
      if (csv) csv->AddRow(CsvRow(points[i], results[i]));
    }
  } else if (!server.empty()) {
    SimClient client(server, 10.0);
    const PointReply reply = client.PointWithRetry(config);
    if (reply.status != ServeStatus::kOk) {
      std::fprintf(stderr, "daemon-side failure: %s\n",
                   reply.message.c_str());
      return 1;
    }
    PrintResult(config, reply.result);
    if (csv) csv->AddRow(CsvRow(config, reply.result));
  } else {
    const auto r = RunNetworkSim(config);
    PrintResult(config, r);
    if (csv) csv->AddRow(CsvRow(config, r));
  }
  if (csv) std::printf("wrote %s\n", csv->path().c_str());
  return 0;
}
