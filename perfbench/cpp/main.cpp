// perfbench: the repository benchmark's measuring program (see README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin DIR
//             [--commit SHA]
//
// --bin names the build directory holding vixnocd and vixnoc_sweep_worker
// (perfbench/run.py passes it). The last stdout line is the result object;
// the line before it is a provenance/summary object. Exit status 0 only
// when every output checked out.
#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "core.hpp"
#include "layers.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace vixnoc::perfbench {
namespace {

namespace fs = std::filesystem;

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --bin DIR [--commit SHA]\n",
               why);
  return 2;
}

std::string OptJson(const std::optional<double>& v, double scale) {
  return v ? bench::Num(*v * scale) : "null";
}

// How much faster the reference host is than this host was during the
// rounds: kReferenceHostSpeed over HostSpeed across the run (harmonic mean,
// as for the rates). Above 1 on a slower host.
double HostScale(const RoundStats& s) {
  return kReferenceHostSpeed / HarmonicMean(s.host_speed);
}

// The end-to-end metrics (BENCHMARK.json "end_to_end"), from untraced
// rounds. Rates are over the whole run: every round does the same work, so
// that is the harmonic mean of the rounds' rates. It follows the host's
// speed averaged over the run, where a median of rounds would jump between
// a fast and a slow stretch of the host. Rates and latencies are then
// scaled to the reference host speed (README.md, "Host speed"); setup_s,
// process and thread start-up that the speed probe does not follow, is not.
// A missing tail percentile is an error: the run was too short.
bool EndToEnd(const RoundStats& s, const Tally& tally,
              std::vector<Metric>* out) {
  const std::optional<double> p90 = TailPercentile(s.latency_s, 0.90);
  if (!p90) {
    std::fprintf(stderr,
                 "perfbench: %zu latency samples are too few for a p90\n",
                 s.latency_s.size());
  }
  const double scale = HostScale(s);
  *out = {
      {"setup_s", Median(s.setup_s), "s"},
      {"network_cycles_per_s", HarmonicMean(s.cycles_per_s) * scale, "1/s"},
      {"requests_per_s", HarmonicMean(s.requests_per_s) * scale, "1/s"},
      {"latency_p50_ms", Median(s.latency_s) * 1e3 / scale, "ms"},
      {"latency_p90_ms", p90.value_or(0.0) * 1e3 / scale, "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"ok_frac", 1.0 - tally.failed_frac(), "fraction"},
  };
  return p90.has_value();
}

// The figure a workload's users wait on, for the tracing-overhead ratio, at
// the reference host speed: the traced half of a run may meet another host
// speed than the untraced half.
double Primary(const std::string& workload, const RoundStats& s) {
  return HostScale(s) * HarmonicMean(workload == "service_mixed"
                                         ? s.requests_per_s
                                         : s.cycles_per_s);
}

int Run(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage(("bad argument '" + key + "'").c_str());
    }
    args[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "bin" && key != "commit") {
      return Usage(("unknown option --" + key).c_str());
    }
  }
  if (!args.count("workload") || !args.count("bin")) {
    return Usage("--workload and --bin are required");
  }
  const std::string workload = args["workload"];
  const WorkloadShape* shape = FindWorkload(workload);
  if (shape == nullptr) return Usage(("unknown workload " + workload).c_str());

  Env env;
  try {
    env.seed = std::stoull(args.count("seed") ? args["seed"] : "1");
    env.seconds = std::stod(args.count("seconds") ? args["seconds"] : "10");
  } catch (const std::exception&) {
    return Usage("--seed and --seconds take numbers");
  }
  const bool trace = args.count("trace") && args["trace"] == "1";
  const std::string commit = args.count("commit") ? args["commit"] : "unknown";

  if (!bench::BuiltWithNdebug()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: built without NDEBUG, so its "
                 "numbers are not comparable\n");
    return 3;
  }
  const int nproc = Nproc();
  if (shape->Total() > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing to run %s: %d threads + %d workers + "
                 "%d clients exceed nproc = %d\n",
                 workload.c_str(), shape->threads, shape->workers,
                 shape->clients, nproc);
    return 3;
  }
  ::signal(SIGPIPE, SIG_IGN);
  env.worker_path = args["bin"] + "/vixnoc/app/vixnoc_sweep_worker";
  env.daemon_path = args["bin"] + "/vixnoc/app/vixnocd";
  env.work_dir = ".bench_build/run-" + std::to_string(::getpid());
  fs::remove_all(env.work_dir);
  fs::create_directories(env.work_dir);
  // Removed however the run ends (a daemon or store left behind would be
  // read by nobody, but it would be left inside the checkout).
  struct WorkDirGuard {
    std::string path;
    ~WorkDirGuard() {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  } work_dir_guard{env.work_dir};

  // A traced run splits its seconds between an untraced half (the
  // reference for the tracing overhead) and a traced half, so both kinds
  // of run take about as long.
  const double phase_s = trace ? env.seconds / 2 : env.seconds;
  Tally tally;
  RoundStats untraced;
  RunWorkload(workload, env, phase_s, nullptr, &untraced, &tally);
  std::vector<Metric> metrics;
  bool complete = EndToEnd(untraced, tally, &metrics);

  Tracer tracer;
  if (trace) {
    RoundStats traced;
    RunWorkload(workload, env, phase_s, &tracer, &traced, &tally);
    metrics = ProbeLayers(workload, env, traced, tracer, &tally);
    metrics.push_back(Metric{
        "trace.overhead_frac",
        Primary(workload, untraced) / Primary(workload, traced) - 1.0,
        "ratio"});
  }

  const std::string provenance =
      "{\"workload\": \"" + workload + "\", \"seed\": " +
      std::to_string(env.seed) + ", \"seconds\": " + bench::Num(env.seconds) +
      ", \"trace\": " + (trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(nproc) +
      ", \"threads\": " + std::to_string(shape->threads) +
      ", \"workers\": " + std::to_string(shape->workers) +
      ", \"clients\": " + std::to_string(shape->clients) +
      ", \"build\": " + bench::BuildFlagsJson() + ", \"commit\": \"" +
      bench::EscapeJson(commit) + "\", \"rounds\": " +
      std::to_string(untraced.rounds) + ", \"digest\": \"" +
      Hex(untraced.digest.value_or(0)) + "\", \"failed_frac\": " +
      bench::Num(tally.failed_frac()) + "}";
  if (trace) {
    const std::string dir = ".bench_build/traces";
    fs::create_directories(dir);
    const std::string path =
        dir + "/" + workload + "-seed" + std::to_string(env.seed) + ".json";
    if (!tracer.Write(path, provenance)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      complete = false;
    }
  }
  std::string summary = "{\"provenance\": " + provenance;
  // Per-round figures, so a run's own spread is visible beside its medians.
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", " : "") + bench::Num(v[i]);
    }
    return s + "]";
  };
  // host_scale undoes the end-to-end scaling: measured rate = metric /
  // host_scale, measured time = metric * host_scale.
  summary += ", \"host_speed\": " +
             bench::Num(HarmonicMean(untraced.host_speed)) +
             ", \"host_scale\": " + bench::Num(HostScale(untraced)) +
             ", \"round_setup_s\": " + list(untraced.setup_s) +
             ", \"round_cycles_per_s\": " + list(untraced.cycles_per_s) +
             ", \"round_requests_per_s\": " + list(untraced.requests_per_s);
  if (workload == "service_mixed") {
    // The service's hit/miss split, for reading beside latency_p50/p90.
    summary +=
        ", \"hit_latency_p50_us\": " +
        bench::Num(Median(untraced.hit_latency_s) * 1e6) +
        ", \"hit_latency_p99_us\": " +
        OptJson(TailPercentile(untraced.hit_latency_s, 0.99), 1e6) +
        ", \"miss_latency_p50_ms\": " +
        bench::Num(Median(untraced.miss_latency_s) * 1e3) +
        ", \"miss_latency_p90_ms\": " +
        OptJson(TailPercentile(untraced.miss_latency_s, 0.90), 1e3);
  }
  std::printf("%s}\n", summary.c_str());

  const bool correct = tally.failed == 0 && complete;
  std::printf("%s\n", ResultJson(correct, tally, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace vixnoc::perfbench

int main(int argc, char** argv) {
  try {
    return vixnoc::perfbench::Run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
