// Shared harness for the sweep-shaped paper benches.
//
// Wraps the common lifecycle: parse `threads=` / `json=` / `help=` keys,
// run batches of NetworkSimConfig points on a SweepRunner, keep wall-clock
// and simulated-cycle totals, and emit a machine-readable results file
// (default bench_results.json) alongside the human-readable tables.
//
//   bench::SweepHarness sweep(argc, argv, "fig8_mesh_latency");
//   std::vector<NetworkSimResult> results = sweep.Run(points);
//   ...print tables / claims...
//   sweep.Finish();   // summary line + JSON
//
// Execution backends (mutually exclusive where noted):
//   default            in-process SweepRunner thread pool
//   checkpoint=DIR     same, backed by the content-addressed result store
//                      at DIR — interrupted benches resume, and any bench
//                      pointed at the same DIR shares completed points
//   isolate=process    crash-isolated subprocess execution (composable
//                      with checkpoint=)
//   server=SOCK        points are served by a running vixnocd daemon over
//                      its Unix socket (exclusive with checkpoint= and
//                      isolate=process — the daemon owns its own store)
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "exec/coordinator.hpp"
#include "server/client.hpp"
#include "sim/sweep.hpp"
#include "store/result_store.hpp"
#include "traffic/patterns.hpp"

namespace vixnoc::bench {

class SweepHarness {
 public:
  SweepHarness(int argc, char** argv, std::string bench_name,
               std::string default_json = "bench_results.json")
      : bench_name_(std::move(bench_name)) {
    ArgMap args = ArgMap::Parse(argc, argv);
    Init(args, default_json, /*extra_usage=*/"");
    args.CheckAllConsumed();
  }

  /// For benches with their own flags: the caller parses an ArgMap, passes
  /// it here (the harness consumes `threads=` / `json=` / `help=`, printing
  /// `extra_usage` after the standard lines on help=), then reads its own
  /// keys and calls args.CheckAllConsumed() itself.
  SweepHarness(ArgMap& args, std::string bench_name,
               std::string default_json = "bench_results.json",
               const std::string& extra_usage = "")
      : bench_name_(std::move(bench_name)) {
    Init(args, default_json, extra_usage);
  }

  int threads() const {
    // server= mode has no local pool; report the requested key (0 = auto)
    // so the summary/JSON stay truthful about local compute.
    return runner_ != nullptr ? runner_->num_threads() : threads_;
  }

  /// Runs one batch of points in parallel; may be called repeatedly. Wall
  /// clock and per-point records accumulate across calls. With
  /// `checkpoint=DIR`, completed points land in the content-addressed
  /// result store at DIR (keyed by config fingerprint, not batch index) —
  /// re-running an interrupted bench resumes from the store and produces
  /// results bitwise identical to a straight run.
  std::vector<NetworkSimResult> Run(
      const std::vector<NetworkSimConfig>& points) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<NetworkSimResult> results;
    if (client_ != nullptr) {
      results = RunViaServer(points);
    } else if (isolate_process_) {
      // Crash-isolated path: points run in vixnoc_sweep_worker
      // subprocesses with classification, retries and graceful
      // degradation (exec/coordinator.hpp). Results are merged in
      // submission order, so the table below is identical to the
      // in-process path's whenever no point crashes out.
      ExecPolicy policy;
      policy.num_workers = threads_;
      policy.point_timeout_seconds = point_timeout_;
      policy.max_retries = retries_;
      policy.cache = store_;
      SweepExecResult exec = SweepCoordinator(policy).Run(points);
      results = std::move(exec.results);
      exec_ += std::move(exec);
    } else {
      results = runner_->Run(points);
      exec_.origins.insert(exec_.origins.end(), runner_->origins().begin(),
                           runner_->origins().end());
      exec_.defective_cache_points += runner_->defective_cache_points();
    }
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    for (std::size_t i = 0; i < points.size(); ++i) {
      const NetworkSimConfig& c = points[i];
      sim_cycles_ += static_cast<std::uint64_t>(c.warmup) + c.measure +
                     c.drain;
      records_.emplace_back(c, results[i]);
    }
    return results;
  }

  /// Prints the sweep summary and writes the JSON results file. Returns a
  /// process exit code (non-zero if the JSON file could not be written),
  /// so benches can end with `return sweep.Finish();`.
  int Finish() const {
    std::printf(
        "\nsweep: %zu points on %d thread(s) in %.2fs "
        "(%.0f network-cycles/s)\n",
        records_.size(), threads(), wall_seconds_,
        wall_seconds_ > 0 ? static_cast<double>(sim_cycles_) / wall_seconds_
                          : 0.0);
    if (json_path_.empty()) return 0;
    std::FILE* f = std::fopen(json_path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path_.c_str());
      return 1;
    }
    // Checkpoint provenance: whether this file was produced with a point
    // cache, how many points came from it rather than fresh runs, how
    // many cache entries were found defective and re-run, and how many
    // duplicate in-batch points were satisfied by copying a canonical
    // slot's result instead of re-simulating.
    const std::string cached_points =
        std::to_string(CountOrigin(exec_.origins, PointOrigin::kCache));
    std::string provenance =
        "  \"deduped_points\": " +
        std::to_string(CountOrigin(exec_.origins, PointOrigin::kDuplicate)) +
        ",\n";
    if (!checkpoint_dir_.empty()) {
      provenance += "  \"checkpoint_dir\": \"" + EscapeJson(checkpoint_dir_) +
                    "\",\n  \"resumed_points\": " + cached_points +
                    ",\n  \"defective_cache_points\": " +
                    std::to_string(exec_.defective_cache_points) + ",\n";
    }
    if (client_ != nullptr) {
      // Service provenance: which vixnocd daemon served the sweep and how
      // each point was satisfied (store hit / fresh compute / coalesced
      // onto another client's in-flight computation).
      provenance += "  \"server\": {\"socket\": \"" +
                    EscapeJson(client_->socket_path()) +
                    "\", \"store_hits\": " + std::to_string(server_hits_) +
                    ", \"computed\": " + std::to_string(server_computed_) +
                    ", \"coalesced\": " + std::to_string(server_coalesced_) +
                    ", \"retries\": " + std::to_string(server_retries_) +
                    "},\n";
    }
    if (isolate_process_) {
      // Process-isolation provenance: how the batch was executed at the
      // subprocess level — retry/crash/timeout tallies plus the worker
      // lifecycle event log — so a results file records not just the
      // numbers but how reliably they were produced.
      provenance += "  \"exec\": {\"isolate\": \"process\", "
                    "\"point_timeout\": " + Num(point_timeout_) +
                    ", \"retries\": " + std::to_string(retries_) +
                    ", \"workers_spawned\": " +
                    std::to_string(exec_.workers_spawned) +
                    ", \"crashes\": " + std::to_string(exec_.crashes) +
                    ", \"timeouts\": " + std::to_string(exec_.timeouts) +
                    ", \"bad_frames\": " + std::to_string(exec_.bad_frames) +
                    ", \"spawn_failures\": " +
                    std::to_string(exec_.spawn_failures) +
                    ", \"retries_performed\": " +
                    std::to_string(exec_.retries) +
                    ", \"exhausted_points\": " +
                    std::to_string(exec_.exhausted_points) +
                    ", \"fallback_points\": " +
                    std::to_string(exec_.fallback_points) +
                    ", \"cached_points\": " + cached_points +
                    ",\n    \"worker_events\": [";
      for (std::size_t i = 0; i < exec_.events.size(); ++i) {
        const WorkerEvent& ev = exec_.events[i];
        provenance += std::string(i ? ", \"" : "\"") +
                      EscapeJson(ToString(ev.kind) + " slot " +
                                 std::to_string(ev.slot) + " pid " +
                                 std::to_string(ev.pid) +
                                 (ev.detail.empty() ? "" : ": " + ev.detail)) +
                      "\"";
      }
      provenance += "]},\n";
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"build\": %s,\n"
                 "  \"threads\": %d,\n"
                 "  \"points\": %zu,\n"
                 "%s"
                 "  \"wall_seconds\": %s,\n"
                 "  \"sim_cycles\": %llu,\n"
                 "  \"sim_cycles_per_second\": %s,\n"
                 "  \"results\": [\n",
                 bench_name_.c_str(), BuildFlagsJson().c_str(), threads(),
                 records_.size(),
                 provenance.c_str(), Num(wall_seconds_).c_str(),
                 static_cast<unsigned long long>(sim_cycles_),
                 Num(wall_seconds_ > 0
                         ? static_cast<double>(sim_cycles_) / wall_seconds_
                         : 0.0)
                     .c_str());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const NetworkSimConfig& c = records_[i].first;
      const NetworkSimResult& r = records_[i].second;
      // Failed points (invalid config, deadlock, undeliverable traffic)
      // keep their slot with a status and message instead of silently
      // vanishing or poisoning the table with zeros.
      std::string outcome_json =
          "\"status\": \"" + ToString(r.outcome.status) + "\"";
      if (!r.outcome.ok()) {
        outcome_json +=
            ", \"message\": \"" + EscapeJson(r.outcome.message) + "\"";
      }
      if (i < exec_.points.size()) {
        // Per-point execution provenance in process-isolation mode:
        // subprocess attempts and, when the point ever failed at the
        // process level, the classified cause.
        const ExecStatus& es = exec_.points[i];
        outcome_json += ", \"attempts\": " + std::to_string(es.attempts);
        if (exec_.origins[i] == PointOrigin::kCache) {
          outcome_json += ", \"from_cache\": true";
        }
        if (es.in_process_fallback) {
          outcome_json += ", \"in_process_fallback\": true";
        }
        if (es.last_failure != ExecFailure::kNone) {
          outcome_json += ", \"exec_failure\": \"" +
                          ToString(es.last_failure) + "\", " +
                          "\"exec_detail\": \"" +
                          EscapeJson(es.failure_detail) + "\"";
        }
      }
      if (r.telemetry.enabled) {
        // Telemetry aggregates ride along per point when the config enabled
        // the collector (measurement-window scope, like the core metrics).
        const TelemetrySummary& t = r.telemetry;
        char tele[512];
        std::snprintf(
            tele, sizeof tele,
            ", \"telemetry\": {\"sa_requests\": %llu, \"sa_grants\": %llu, "
            "\"crossbar_utilization\": %s, "
            "\"vin_conflict_distinct_output\": %llu, "
            "\"vin_conflict_same_output\": %llu, "
            "\"same_output_conflict_rate\": %s, "
            "\"distinct_output_conflict_rate\": %s, "
            "\"output_conflict_cycles\": %llu}",
            static_cast<unsigned long long>(t.sa_requests),
            static_cast<unsigned long long>(t.sa_grants),
            Num(t.crossbar_utilization).c_str(),
            static_cast<unsigned long long>(t.vin_conflict_distinct_output),
            static_cast<unsigned long long>(t.vin_conflict_same_output),
            Num(t.same_output_conflict_rate).c_str(),
            Num(t.distinct_output_conflict_rate).c_str(),
            static_cast<unsigned long long>(t.output_conflict_cycles));
        outcome_json += tele;
      }
      std::fprintf(
          f,
          "    {\"topology\": \"%s\", \"scheme\": \"%s\", "
          "\"pattern\": \"%s\", \"injection_rate\": %s, \"num_vcs\": %d, "
          "\"seed\": %llu, \"accepted_ppc\": %s, \"avg_latency\": %s, "
          "\"p99_latency\": %s, \"max_min_ratio\": %s, \"saturated\": %s, "
          "%s}%s\n",
          ToString(c.topology).c_str(), ToString(c.scheme).c_str(),
          MakePattern(c.pattern)->Name().c_str(), Num(c.injection_rate).c_str(),
          c.num_vcs, static_cast<unsigned long long>(c.seed),
          Num(r.accepted_ppc).c_str(), Num(r.avg_latency).c_str(),
          Num(r.p99_latency).c_str(), Num(r.max_min_ratio).c_str(),
          r.saturated ? "true" : "false", outcome_json.c_str(),
          i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path_.c_str());
    return 0;
  }

 private:
  void Init(ArgMap& args, const std::string& default_json,
            const std::string& extra_usage) {
    if (args.GetBool("help", false)) {
      std::printf(
          "usage: bench_%s [threads=N] [json=PATH] [checkpoint=DIR]\n"
          "       [server=SOCK] [isolate=thread|process] [point_timeout=S] "
          "[retries=N]%s\n"
          "  threads=N       worker threads (or subprocesses) for the sweep\n"
          "                  (default 0 = $VIXNOC_THREADS if set, else all "
          "cores)\n"
          "  json=PATH       machine-readable results file\n"
          "                  (default %s; json= disables)\n"
          "  checkpoint=DIR  content-addressed result store at DIR;\n"
          "                  re-running after an interruption resumes, and\n"
          "                  benches sharing DIR share completed points\n"
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
          "                  (isolate=process; default 2)\n%s",
          bench_name_.c_str(), extra_usage.empty() ? "" : " [...]",
          default_json.c_str(), extra_usage.c_str());
      std::exit(0);
    }
    threads_ = static_cast<int>(args.GetInt("threads", 0));
    json_path_ = args.GetString("json", default_json);
    checkpoint_dir_ = args.GetString("checkpoint", "");
    server_socket_ = args.GetString("server", "");
    const std::string isolate = args.GetString("isolate", "thread");
    if (isolate != "thread" && isolate != "process") {
      std::fprintf(stderr, "isolate=%s is not 'thread' or 'process'\n",
                   isolate.c_str());
      std::exit(2);
    }
    isolate_process_ = isolate == "process";
    if (!server_socket_.empty() &&
        (!checkpoint_dir_.empty() || isolate_process_)) {
      std::fprintf(stderr,
                   "server= is mutually exclusive with checkpoint= and "
                   "isolate=process (the daemon owns its own store)\n");
      std::exit(2);
    }
    point_timeout_ = args.GetDouble("point_timeout", 0.0);
    retries_ = static_cast<int>(args.GetInt("retries", 2));
    if (!server_socket_.empty()) {
      try {
        client_ = std::make_unique<SimClient>(server_socket_, 10.0);
      } catch (const SimError& e) {
        std::fprintf(stderr, "cannot reach vixnocd at %s: %s\n",
                     server_socket_.c_str(), e.what());
        std::exit(1);
      }
    } else {
      if (!checkpoint_dir_.empty()) {
        store_ = std::make_shared<ResultStore>(checkpoint_dir_);
      }
      runner_ = std::make_unique<SweepRunner>(threads_);
      if (store_ != nullptr) runner_->SetCache(store_);
    }
    WarnIfDebugBuild(bench_name_);
  }

  std::vector<NetworkSimResult> RunViaServer(
      const std::vector<NetworkSimConfig>& points) {
    std::vector<NetworkSimResult> results(points.size());
    SimClient::BatchReplies served = client_->BatchWithRetry(points);
    server_retries_ += served.reasks;
    std::vector<PointReply>& replies = served.replies;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const PointReply& r = replies[i];
      if (r.status != ServeStatus::kOk) {
        results[i].outcome.status = SimStatus::kExecFailure;
        results[i].outcome.message = "daemon: " + r.message;
        continue;
      }
      results[i] = std::move(replies[i].result);
      server_hits_ += r.source == ServeSource::kStore;
      server_computed_ += r.source == ServeSource::kComputed;
      server_coalesced_ += r.source == ServeSource::kCoalesced;
    }
    return results;
  }

  std::string bench_name_;
  std::string json_path_;
  std::string checkpoint_dir_;
  std::string server_socket_;
  int threads_ = 0;
  bool isolate_process_ = false;
  double point_timeout_ = 0.0;
  int retries_ = 2;
  std::uint64_t server_hits_ = 0;
  std::uint64_t server_computed_ = 0;
  std::uint64_t server_coalesced_ = 0;
  std::uint64_t server_retries_ = 0;
  std::shared_ptr<ResultStore> store_;
  std::unique_ptr<SimClient> client_;
  std::unique_ptr<SweepRunner> runner_;
  double wall_seconds_ = 0.0;
  std::uint64_t sim_cycles_ = 0;
  std::vector<std::pair<NetworkSimConfig, NetworkSimResult>> records_;
  // Cross-batch execution record: slot origins (parallel to records_) and
  // defective cache entries on both local paths; per-point statuses,
  // events and process-level tallies only with isolate=process.
  SweepExecResult exec_;
};

}  // namespace vixnoc::bench
