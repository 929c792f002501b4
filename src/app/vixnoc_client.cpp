// vixnoc_client: CLI client for the vixnocd daemon.
//
//   $ vixnoc_client point socket=/run/vixnocd.sock scheme=vix rate=0.1
//   $ vixnoc_client sweep socket=/run/vixnocd.sock scheme=vix json=out.json
//   $ vixnoc_client stats socket=/run/vixnocd.sock
//   $ vixnoc_client shutdown socket=/run/vixnocd.sock
//
// point: one simulation point, same config keys as noc_explorer
//   (topology= scheme= pattern= routing= rate= vcs= depth= packet= seed=
//   warmup= measure= drain= pipeline= hotspot= fanin=).
// sweep: the standard rate sweep (0.02 .. saturation step 0.01) over those
//   keys, sent as one batch; json= writes per-point results with their
//   serve source (store/computed/coalesced) plus summary counters — the
//   tier1 service gate diffs two of these files field by field.
// stats / shutdown: daemon introspection and graceful drain.
//
// connect_timeout=S retries the initial connect (covers daemon startup).
// Exit codes: 0 success, 1 transport/daemon error, 2 usage.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "app/sim_config_args.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "server/client.hpp"

using namespace vixnoc;

namespace {

void PrintPoint(const NetworkSimConfig& config, const PointReply& reply) {
  if (reply.status != ServeStatus::kOk) {
    std::printf("rate=%.3f %s: %s\n", config.injection_rate,
                ToString(reply.status).c_str(), reply.message.c_str());
    return;
  }
  const NetworkSimResult& r = reply.result;
  std::printf(
      "%-6s %-9s rate=%.3f | accepted=%.4f ppc lat=%.1f p99=%.0f "
      "maxmin=%.2f%s  [%s]\n",
      ToString(config.topology).c_str(), ToString(config.scheme).c_str(),
      config.injection_rate, r.accepted_ppc, r.avg_latency, r.p99_latency,
      r.max_min_ratio, r.saturated ? " [saturated]" : "",
      ToString(reply.source).c_str());
}

void WriteSweepJson(const std::string& path, const std::string& socket,
                    const std::vector<NetworkSimConfig>& points,
                    const std::vector<PointReply>& replies,
                    std::uint64_t retries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "vixnoc_client: cannot write %s\n", path.c_str());
    return;
  }
  std::uint64_t store_hits = 0, computed = 0, coalesced = 0, errors = 0;
  for (const PointReply& r : replies) {
    if (r.status != ServeStatus::kOk) {
      ++errors;
    } else if (r.source == ServeSource::kStore) {
      ++store_hits;
    } else if (r.source == ServeSource::kComputed) {
      ++computed;
    } else if (r.source == ServeSource::kCoalesced) {
      ++coalesced;
    }
  }
  std::fprintf(f, "{\n  \"bench\": \"vixnoc_client_sweep\",\n");
  std::fprintf(f, "  \"socket\": \"%s\",\n", socket.c_str());
  std::fprintf(f, "  \"points\": %zu,\n", points.size());
  std::fprintf(f, "  \"store_hits\": %" PRIu64 ",\n", store_hits);
  std::fprintf(f, "  \"computed\": %" PRIu64 ",\n", computed);
  std::fprintf(f, "  \"coalesced\": %" PRIu64 ",\n", coalesced);
  std::fprintf(f, "  \"errors\": %" PRIu64 ",\n", errors);
  std::fprintf(f, "  \"retries\": %" PRIu64 ",\n", retries);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const NetworkSimConfig& c = points[i];
    const PointReply& r = replies[i];
    std::fprintf(f,
                 "    {\"topology\": \"%s\", \"scheme\": \"%s\", "
                 "\"injection_rate\": %.17g, \"seed\": %" PRIu64
                 ", \"status\": \"%s\", \"source\": \"%s\"",
                 ToString(c.topology).c_str(), ToString(c.scheme).c_str(),
                 c.injection_rate, c.seed, ToString(r.status).c_str(),
                 ToString(r.source).c_str());
    if (r.status == ServeStatus::kOk) {
      const NetworkSimResult& m = r.result;
      std::fprintf(f,
                   ", \"accepted_ppc\": %.17g, \"accepted_fpc\": %.17g, "
                   "\"avg_latency\": %.17g, \"p99_latency\": %.17g, "
                   "\"max_min_ratio\": %.17g, \"packets_measured\": %" PRIu64
                   ", \"saturated\": %s",
                   m.accepted_ppc, m.accepted_fpc, m.avg_latency,
                   m.p99_latency, m.max_min_ratio, m.packets_measured,
                   m.saturated ? "true" : "false");
    }
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

int RunPoint(SimClient& client, const ArgMap& args) {
  NetworkSimConfig config;
  if (!SimConfigFromArgs(args, &config)) return 2;
  args.CheckAllConsumed();
  const PointReply reply = client.PointWithRetry(config);
  PrintPoint(config, reply);
  return reply.status == ServeStatus::kOk ? 0 : 1;
}

int RunSweep(SimClient& client, const ArgMap& args) {
  NetworkSimConfig config;
  if (!SimConfigFromArgs(args, &config)) return 2;
  const std::string json = args.GetString("json", "");
  args.CheckAllConsumed();

  std::vector<NetworkSimConfig> points;
  for (double rate = 0.02; rate <= config.MaxInjectionRate() + 1e-9;
       rate += 0.01) {
    config.injection_rate = rate;
    points.push_back(config);
  }

  // Retry-after slots (daemon at capacity) are re-asked after the
  // daemon's own backoff hint.
  const SimClient::BatchReplies served = client.BatchWithRetry(points);
  const std::vector<PointReply>& replies = served.replies;

  bool ok = true;
  for (std::size_t i = 0; i < points.size(); ++i) {
    PrintPoint(points[i], replies[i]);
    if (replies[i].status != ServeStatus::kOk) ok = false;
  }
  if (!json.empty()) WriteSweepJson(json, client.socket_path(), points,
                                    replies, served.reasks);
  return ok ? 0 : 1;
}

int RunStats(SimClient& client, const ArgMap& args) {
  args.CheckAllConsumed();
  const DaemonStats s = client.Stats();
  std::printf("requests:            %" PRIu64 " (%" PRIu64 " point, %" PRIu64
              " batch)\n",
              s.requests, s.point_requests, s.batch_requests);
  std::printf("points served:       %" PRIu64 "\n", s.points_served);
  std::printf("  store hits:        %" PRIu64 "\n", s.store_hits);
  std::printf("  computed:          %" PRIu64 "\n", s.computed_points);
  std::printf("  coalesced:         %" PRIu64 "\n", s.coalesced_points);
  std::printf("retry-after replies: %" PRIu64 "\n", s.retry_after_replies);
  std::printf("error replies:       %" PRIu64 "\n", s.error_replies);
  std::printf("in flight now:       %" PRIu64 "\n", s.inflight);
  std::printf("connections:         %" PRIu64 " accepted, %" PRIu64
              " active\n",
              s.connections_accepted, s.active_connections);
  std::printf("store writes:        %" PRIu64 " entries, %" PRIu64
              " bytes\n",
              s.store_entries_written, s.store_bytes_written);
  std::printf("store defective:     %" PRIu64 "\n", s.store_defective);
  std::printf("store GC evicted:    %" PRIu64 "\n", s.store_gc_evicted);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: vixnoc_client point|sweep|stats|shutdown "
                 "socket=PATH [keys...]\n");
    return 2;
  }
  const std::string command = argv[1];
  ArgMap args = ArgMap::Parse(argc - 1, argv + 1);
  const std::string socket = args.GetString("socket", "");
  const double connect_timeout = args.GetDouble("connect_timeout", 10.0);
  if (socket.empty()) {
    std::fprintf(stderr, "vixnoc_client: socket=PATH is required\n");
    return 2;
  }
  try {
    SimClient client(socket, connect_timeout);
    if (command == "point") return RunPoint(client, args);
    if (command == "sweep") return RunSweep(client, args);
    if (command == "stats") return RunStats(client, args);
    if (command == "shutdown") {
      args.CheckAllConsumed();
      client.Shutdown();
      std::printf("daemon at %s acknowledged shutdown\n", socket.c_str());
      return 0;
    }
    std::fprintf(stderr, "vixnoc_client: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const SimError& e) {
    std::fprintf(stderr, "vixnoc_client: %s\n", e.what());
    return 1;
  }
}
