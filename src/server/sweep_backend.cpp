#include "server/sweep_backend.hpp"

#include <cstdio>
#include <utility>

#include "server/client.hpp"
#include "store/result_store.hpp"

namespace vixnoc {

const char kSweepBackendUsage[] =
    "  threads=N       worker threads (or subprocesses) for the sweep\n"
    "                  (default 0 = $VIXNOC_THREADS if set, else all cores)\n"
    "  checkpoint=DIR  content-addressed result store at DIR;\n"
    "                  re-running after an interruption resumes, and\n"
    "                  sweeps sharing DIR share completed points\n"
    "  server=SOCK     send every point to the vixnocd daemon at\n"
    "                  SOCK instead of simulating locally (exclusive\n"
    "                  with checkpoint= and isolate=process)\n"
    "  isolate=MODE    'thread' (default) runs points in-process;\n"
    "                  'process' runs each point in a\n"
    "                  vixnoc_sweep_worker subprocess so a crashing\n"
    "                  or hanging point cannot take down the sweep\n"
    "  point_timeout=S kill a worker stuck on one point for more\n"
    "                  than S seconds (isolate=process; 0 disables)\n"
    "  retries=N       process-level retries per failed point\n"
    "                  (isolate=process; default 2)\n";

bool ParseSweepBackendArgs(ArgMap& args, SweepBackendOptions* options) {
  options->threads = static_cast<int>(args.GetInt("threads", 0));
  options->checkpoint = args.GetString("checkpoint", "");
  options->server = args.GetString("server", "");
  const std::string isolate = args.GetString("isolate", "thread");
  if (isolate != "thread" && isolate != "process") {
    std::fprintf(stderr, "isolate=%s is not 'thread' or 'process'\n",
                 isolate.c_str());
    return false;
  }
  options->isolate_process = isolate == "process";
  if (!options->server.empty() &&
      (!options->checkpoint.empty() || options->isolate_process)) {
    std::fprintf(stderr,
                 "server= is mutually exclusive with checkpoint= and "
                 "isolate=process (the daemon owns its own store)\n");
    return false;
  }
  options->point_timeout = args.GetDouble("point_timeout", 0.0);
  options->retries = static_cast<int>(args.GetInt("retries", 2));
  return true;
}

SweepBackend::SweepBackend(SweepBackendOptions options)
    : options_(std::move(options)), threads_(options_.threads) {
  if (!options_.server.empty()) {
    client_ = std::make_unique<SimClient>(options_.server);
    return;
  }
  if (!options_.checkpoint.empty()) {
    store_ = std::make_shared<ResultStore>(options_.checkpoint);
  }
  if (options_.isolate_process) {
    // Each Run builds its own coordinator; the worker count is resolved
    // once so that a bad $VIXNOC_THREADS warns once.
    threads_ = ResolveThreadCount(options_.threads);
    return;
  }
  runner_ = std::make_unique<SweepRunner>(options_.threads);
  runner_->SetCache(store_);
  threads_ = runner_->num_threads();
}

SweepBackend::~SweepBackend() = default;

std::vector<NetworkSimResult> SweepBackend::Run(
    const std::vector<NetworkSimConfig>& points) {
  if (client_ != nullptr) return RunOnDaemon(points);
  SweepExecResult exec;
  if (options_.isolate_process) {
    // Results are merged in submission order, so they match the
    // in-process path's whenever no point crashes out.
    ExecPolicy policy;
    policy.num_workers = threads_;
    policy.point_timeout_seconds = options_.point_timeout;
    policy.max_retries = options_.retries;
    policy.cache = store_;
    exec = SweepCoordinator(policy).Run(points);
  } else {
    exec.results = runner_->Run(points);
    exec.origins = runner_->origins();
    exec.defective_cache_points = runner_->defective_cache_points();
  }
  std::vector<NetworkSimResult> results = std::move(exec.results);
  record_.exec += std::move(exec);
  return results;
}

std::vector<NetworkSimResult> SweepBackend::RunOnDaemon(
    const std::vector<NetworkSimConfig>& points) {
  SimClient::BatchReplies served = client_->BatchWithRetry(points);
  record_.reasks += served.reasks;
  std::vector<NetworkSimResult> results(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    PointReply& reply = served.replies[i];
    if (reply.status != ServeStatus::kOk) {
      std::fprintf(stderr, "point %zu failed daemon-side: %s\n", i,
                   reply.message.c_str());
      results[i].outcome.status = SimStatus::kExecFailure;
      results[i].outcome.message = "daemon: " + reply.message;
      continue;
    }
    results[i] = std::move(reply.result);
    record_.store_hits += reply.source == ServeSource::kStore;
    record_.computed += reply.source == ServeSource::kComputed;
    record_.coalesced += reply.source == ServeSource::kCoalesced;
  }
  return results;
}

std::string SweepBackend::Summary() const {
  std::string out;
  const auto line = [&out](const char* format, auto... args) {
    char text[512];
    std::snprintf(text, sizeof text, format, args...);
    out += text;
  };
  const auto u = [](std::uint64_t v) {
    return static_cast<unsigned long long>(v);
  };
  const SweepRecord& r = record_;
  const SweepExecResult& e = r.exec;
  if (client_ != nullptr) {
    line("served by %s: %llu store hits, %llu computed, %llu coalesced, "
         "%llu re-asked after retry-after\n",
         options_.server.c_str(), u(r.store_hits), u(r.computed),
         u(r.coalesced), u(r.reasks));
  }
  if (e.crashes + e.timeouts + e.bad_frames + e.spawn_failures > 0) {
    line("exec: %llu crash(es), %llu timeout(s), %llu bad frame(s), "
         "%llu spawn failure(s); %llu retr%s, %llu point(s) exhausted, "
         "%llu ran in-process\n",
         u(e.crashes), u(e.timeouts), u(e.bad_frames), u(e.spawn_failures),
         u(e.retries), e.retries == 1 ? "y" : "ies", u(e.exhausted_points),
         u(e.fallback_points));
  }
  if (const std::size_t resumed = CountOrigin(e.origins, PointOrigin::kCache);
      resumed > 0) {
    line("resumed %zu/%zu points from %s\n", resumed, e.origins.size(),
         options_.checkpoint.c_str());
  }
  if (e.defective_cache_points > 0) {
    line("re-ran %llu point(s) whose cache entries were defective\n",
         u(e.defective_cache_points));
  }
  return out;
}

}  // namespace vixnoc
