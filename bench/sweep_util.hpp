// Shared harness for the sweep-shaped paper benches.
//
// Wraps the common lifecycle: parse `json=` / `help=` and the sweep
// backend keys (server/sweep_backend.hpp), run batches of
// NetworkSimConfig points on that backend, keep wall-clock and
// simulated-cycle totals, and emit a machine-readable results file
// (default bench_results.json) alongside the human-readable tables.
//
//   bench::SweepHarness sweep(argc, argv, "fig8_mesh_latency");
//   std::vector<NetworkSimResult> results = sweep.Run(points);
//   ...print tables / claims...
//   sweep.Finish();   // summary lines + JSON
//
// Where the points run (in-process, isolate=process, checkpoint=DIR,
// server=SOCK) is the backend's business; the JSON's provenance blocks
// are read from its cumulative record.
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
#include "server/sweep_backend.hpp"
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
  /// it here (the harness consumes `json=` / `help=` and the backend keys,
  /// printing `extra_usage` after the standard lines on help=), then reads
  /// its own keys and calls args.CheckAllConsumed() itself.
  SweepHarness(ArgMap& args, std::string bench_name,
               std::string default_json = "bench_results.json",
               const std::string& extra_usage = "")
      : bench_name_(std::move(bench_name)) {
    Init(args, default_json, extra_usage);
  }

  int threads() const { return backend_->threads(); }

  /// Runs one batch of points on the backend; may be called repeatedly.
  /// Wall clock and per-point records accumulate across calls. With
  /// `checkpoint=DIR`, completed points land in the content-addressed
  /// result store at DIR (keyed by config fingerprint, not batch index) —
  /// re-running an interrupted bench resumes from the store and produces
  /// results bitwise identical to a straight run.
  std::vector<NetworkSimResult> Run(
      const std::vector<NetworkSimConfig>& points) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<NetworkSimResult> results = backend_->Run(points);
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
    std::fputs(backend_->Summary().c_str(), stdout);
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
    const SweepBackendOptions& opt = backend_->options();
    const SweepRecord& rec = backend_->record();
    const SweepExecResult& exec = rec.exec;
    const std::string cached_points =
        std::to_string(CountOrigin(exec.origins, PointOrigin::kCache));
    std::string provenance =
        "  \"deduped_points\": " +
        std::to_string(CountOrigin(exec.origins, PointOrigin::kDuplicate)) +
        ",\n";
    if (!opt.checkpoint.empty()) {
      provenance += "  \"checkpoint_dir\": \"" + EscapeJson(opt.checkpoint) +
                    "\",\n  \"resumed_points\": " + cached_points +
                    ",\n  \"defective_cache_points\": " +
                    std::to_string(exec.defective_cache_points) + ",\n";
    }
    if (!opt.server.empty()) {
      // Service provenance: which vixnocd daemon served the sweep and how
      // each point was satisfied (store hit / fresh compute / coalesced
      // onto another client's in-flight computation).
      provenance += "  \"server\": {\"socket\": \"" +
                    EscapeJson(opt.server) +
                    "\", \"store_hits\": " + std::to_string(rec.store_hits) +
                    ", \"computed\": " + std::to_string(rec.computed) +
                    ", \"coalesced\": " + std::to_string(rec.coalesced) +
                    ", \"retries\": " + std::to_string(rec.reasks) +
                    "},\n";
    }
    if (opt.isolate_process) {
      // Process-isolation provenance: how the batch was executed at the
      // subprocess level — retry/crash/timeout tallies plus the worker
      // lifecycle event log — so a results file records not just the
      // numbers but how reliably they were produced.
      provenance += "  \"exec\": {\"isolate\": \"process\", "
                    "\"point_timeout\": " + Num(opt.point_timeout) +
                    ", \"retries\": " + std::to_string(opt.retries) +
                    ", \"workers_spawned\": " +
                    std::to_string(exec.workers_spawned) +
                    ", \"crashes\": " + std::to_string(exec.crashes) +
                    ", \"timeouts\": " + std::to_string(exec.timeouts) +
                    ", \"bad_frames\": " + std::to_string(exec.bad_frames) +
                    ", \"spawn_failures\": " +
                    std::to_string(exec.spawn_failures) +
                    ", \"retries_performed\": " +
                    std::to_string(exec.retries) +
                    ", \"exhausted_points\": " +
                    std::to_string(exec.exhausted_points) +
                    ", \"fallback_points\": " +
                    std::to_string(exec.fallback_points) +
                    ", \"cached_points\": " + cached_points +
                    ",\n    \"worker_events\": [";
      for (std::size_t i = 0; i < exec.events.size(); ++i) {
        const WorkerEvent& ev = exec.events[i];
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
      if (i < exec.points.size()) {
        // Per-point execution provenance in process-isolation mode:
        // subprocess attempts and, when the point ever failed at the
        // process level, the classified cause.
        const ExecStatus& es = exec.points[i];
        outcome_json += ", \"attempts\": " + std::to_string(es.attempts);
        if (exec.origins[i] == PointOrigin::kCache) {
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
          "usage: bench_%s [json=PATH] [threads=N] [checkpoint=DIR]\n"
          "       [server=SOCK] [isolate=thread|process] [point_timeout=S] "
          "[retries=N]%s\n"
          "  json=PATH       machine-readable results file\n"
          "                  (default %s; json= disables)\n%s%s",
          bench_name_.c_str(), extra_usage.empty() ? "" : " [...]",
          default_json.c_str(), kSweepBackendUsage, extra_usage.c_str());
      std::exit(0);
    }
    json_path_ = args.GetString("json", default_json);
    SweepBackendOptions options;
    if (!ParseSweepBackendArgs(args, &options)) std::exit(2);
    try {
      backend_ = std::make_unique<SweepBackend>(std::move(options));
    } catch (const SimError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(1);
    }
    WarnIfDebugBuild(bench_name_);
  }

  std::string bench_name_;
  std::string json_path_;
  std::unique_ptr<SweepBackend> backend_;
  double wall_seconds_ = 0.0;
  std::uint64_t sim_cycles_ = 0;
  std::vector<std::pair<NetworkSimConfig, NetworkSimResult>> records_;
};

}  // namespace vixnoc::bench
