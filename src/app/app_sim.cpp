#include "app/app_sim.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/sim_driver.hpp"

namespace vixnoc::app {

namespace {

// Message kinds threaded through Flit::user_tag.
enum class MsgKind : std::uint64_t {
  kCoreToL2 = 1,   ///< miss request, core -> L2 bank
  kL2ToCore = 2,   ///< data reply, L2 bank -> core
  kL2ToMc = 3,     ///< fill request, L2 bank -> memory controller
  kMcToL2 = 4,     ///< fill data, memory controller -> L2 bank
  kWriteback = 5,  ///< dirty-eviction data; consumed on arrival, no reply
};

// Tag layout: kind[63:60] | core[59:52] | bank[51:44] | issue cycle[43:0].
std::uint64_t PackTag(MsgKind kind, int core, int bank, Cycle issue) {
  return (static_cast<std::uint64_t>(kind) << 60) |
         (static_cast<std::uint64_t>(core & 0xff) << 52) |
         (static_cast<std::uint64_t>(bank & 0xff) << 44) |
         (issue & 0xfffffffffffull);
}

struct Core {
  double miss_prob = 0.0;       ///< network_mpki / 1000
  double l2_miss_rate = 0.0;
  int outstanding = 0;
  bool miss_pending = false;    ///< stalled: miss due but MLP window full
  std::int64_t gap = 0;         ///< instructions until the next miss
  std::uint64_t retired = 0;
  std::uint64_t retired_at_measure_start = 0;
  std::uint64_t misses = 0;
  std::uint64_t misses_at_measure_start = 0;
  /// Retired-instruction count at issue time of each outstanding miss,
  /// oldest first; bounds how far the core can run ahead (ROB model).
  std::deque<std::uint64_t> issue_points;
};

struct Mc {
  NodeId node = kInvalidNode;
  Cycle busy_until = 0;
};

std::int64_t DrawGap(Rng& rng, double miss_prob) {
  // Geometric(miss_prob) instruction gap between misses, >= 1.
  if (miss_prob <= 0.0) return std::numeric_limits<std::int64_t>::max() / 2;
  const double u = std::max(rng.NextDouble(), 1e-12);
  const auto gap = static_cast<std::int64_t>(
      std::ceil(std::log(u) / std::log(1.0 - miss_prob)));
  return std::max<std::int64_t>(gap, 1);
}

// The manycore model as a traffic source: the cores, the L2 banks and the
// memory controllers, with the deferred local actions between them.
class AppSource final : public TrafficSource {
 public:
  AppSource(const AppSimConfig& config,
            const std::vector<BenchmarkProfile>& core_profiles,
            SimDriver& driver)
      : TrafficSource(config.warmup + config.measure, 0, ""),
        config_(config),
        net_(driver.net()),
        num_nodes_(net_.NumNodes()),
        rng_(config.seed),
        cores_(num_nodes_),
        mcs_(config.num_mcs) {
    VIXNOC_CHECK(static_cast<int>(core_profiles.size()) == num_nodes_);
    for (NodeId n = 0; n < num_nodes_; ++n) {
      cores_[n].miss_prob = core_profiles[n].network_mpki / 1000.0;
      cores_[n].l2_miss_rate = core_profiles[n].l2_miss_rate;
      cores_[n].gap = DrawGap(rng_, cores_[n].miss_prob);
    }
    // Memory controllers spread along the mesh edges (Table 2: 8 MCs).
    for (int m = 0; m < config.num_mcs; ++m) {
      mcs_[m].node = static_cast<NodeId>(
          (static_cast<std::int64_t>(m) * num_nodes_) / config.num_mcs);
    }
  }

  bool Inject(Cycle t) override {
    if (t == config_.warmup) {
      for (Core& core : cores_) {
        core.retired_at_measure_start = core.retired;
        core.misses_at_measure_start = core.misses;
      }
    }
    ResolveActions(t);
    ExecuteCores(t);
    return false;
  }

  void OnEject(const PacketRecord& rec) override {
    const std::uint64_t tag = rec.user_tag;  // unpacks PackTag
    const Cycle now = rec.ejected;
    const Action act{static_cast<MsgKind>(tag >> 60),
                     static_cast<int>((tag >> 52) & 0xff),
                     static_cast<int>((tag >> 44) & 0xff),
                     tag & 0xfffffffffffull, rec.dst};
    switch (act.kind) {
      case MsgKind::kCoreToL2:  // the L2 bank lookup completes, or
      case MsgKind::kMcToL2:    // the fill is written and forwarded,
        pending_[now + config_.l2_latency].push_back(act);  // after access
        break;
      case MsgKind::kL2ToCore: {
        Core& core = cores_[act.core];
        VIXNOC_CHECK(core.outstanding > 0);
        --core.outstanding;
        // Replies complete approximately oldest-first; retiring the front
        // issue point releases the ROB headroom it was holding.
        core.issue_points.pop_front();
        miss_latency_.Add(static_cast<double>(now - act.issue));
        break;
      }
      case MsgKind::kL2ToMc: {
        // Queue at the memory controller attached to this node.
        const auto mc = std::find_if(mcs_.begin(), mcs_.end(), [&](Mc& m) {
          return m.node == rec.dst;
        });
        VIXNOC_CHECK(mc != mcs_.end());
        const Cycle start = std::max(now, mc->busy_until);
        mc->busy_until = start + config_.mc_service_interval;
        pending_[start + config_.mc_latency].push_back(act);
        break;
      }
      case MsgKind::kWriteback:
        // Dirty data absorbed by the bank (or MC); nothing to send back.
        break;
    }
  }

  AppSimResult Result() const {
    AppSimResult result;
    result.core_ipc.resize(num_nodes_);
    std::uint64_t total_retired = 0;
    std::uint64_t total_misses = 0;
    for (NodeId n = 0; n < num_nodes_; ++n) {
      const std::uint64_t retired =
          cores_[n].retired - cores_[n].retired_at_measure_start;
      total_retired += retired;
      total_misses += cores_[n].misses - cores_[n].misses_at_measure_start;
      result.core_ipc[n] =
          static_cast<double>(retired) / static_cast<double>(config_.measure);
      result.aggregate_ipc += result.core_ipc[n];
    }
    result.avg_mpki = total_retired > 0
                          ? 1000.0 * static_cast<double>(total_misses) /
                                static_cast<double>(total_retired)
                          : 0.0;
    result.avg_miss_latency = miss_latency_.Mean();
    result.total_requests = total_misses;
    return result;
  }

 private:
  // A deferred local action (L2 lookup, MC completion); mc_node is the
  // node an L2-to-MC request arrived at.
  struct Action {
    MsgKind kind;
    int core;
    int bank;
    Cycle issue;
    NodeId mc_node;
  };

  // Virtual networks: requests and writebacks on class 0, data replies on
  // the highest class (identical when num_message_classes == 1).
  void Send(NodeId src, NodeId dst, int flits, MsgKind kind, int core,
            int bank, Cycle issue) {
    const bool reply =
        kind == MsgKind::kL2ToCore || kind == MsgKind::kMcToL2;
    net_.EnqueuePacket(src, dst, flits, PackTag(kind, core, bank, issue),
                       reply ? config_.num_message_classes - 1 : 0);
  }

  void IssueMiss(NodeId core_id, Cycle now) {
    Core& core = cores_[core_id];
    ++core.outstanding;
    ++core.misses;
    core.issue_points.push_back(core.retired);
    const int bank = static_cast<int>(rng_.NextBounded(num_nodes_));
    Send(core_id, bank, config_.request_flits, MsgKind::kCoreToL2, core_id,
         bank, now);
    if (rng_.NextBool(config_.writeback_prob)) {
      // Dirty eviction accompanies the miss: a fire-and-forget data packet
      // to the (address-interleaved, hence independent) home L2 bank.
      const int wb_bank = static_cast<int>(rng_.NextBounded(num_nodes_));
      Send(core_id, wb_bank, config_.data_flits, MsgKind::kWriteback, core_id,
           wb_bank, now);
    }
  }

  void ResolveActions(Cycle t) {  // the deferred actions due by cycle t
    while (!pending_.empty() && pending_.begin()->first <= t) {
      const auto it = pending_.begin();
      for (const Action& act : it->second) {
        switch (act.kind) {
          case MsgKind::kCoreToL2:
            // Bank lookup done: a miss goes to memory, a hit returns data.
            if (rng_.NextBool(cores_[act.core].l2_miss_rate)) {
              Send(act.bank, mcs_[rng_.NextBounded(mcs_.size())].node,
                   config_.request_flits, MsgKind::kL2ToMc, act.core,
                   act.bank, act.issue);
              if (rng_.NextBool(config_.writeback_prob)) {
                // The fill will evict a dirty L2 block to memory.
                Send(act.bank, mcs_[rng_.NextBounded(mcs_.size())].node,
                     config_.data_flits, MsgKind::kWriteback, act.core,
                     act.bank, act.issue);
              }
              break;
            }
            [[fallthrough]];
          case MsgKind::kMcToL2:
            Send(act.bank, act.core, config_.data_flits, MsgKind::kL2ToCore,
                 act.core, act.bank, act.issue);
            break;
          case MsgKind::kL2ToMc:
            // MC service done: send the block back to the L2 bank.
            Send(act.mc_node, act.bank, config_.data_flits, MsgKind::kMcToL2,
                 act.core, act.bank, act.issue);
            break;
          case MsgKind::kL2ToCore:
          case MsgKind::kWriteback:  // never deferred
            break;
        }
      }
      pending_.erase(it);
    }
  }

  void ExecuteCores(Cycle t) {
    for (NodeId n = 0; n < num_nodes_; ++n) {
      Core& core = cores_[n];
      if (core.miss_pending) {
        if (core.outstanding >= config_.mlp_limit) continue;  // MLP full
        IssueMiss(n, t);
        core.miss_pending = false;
      }
      // ROB model: cannot retire further than rob_window instructions past
      // the oldest outstanding miss.
      if (!core.issue_points.empty() &&
          core.retired - core.issue_points.front() >=
              static_cast<std::uint64_t>(config_.rob_window)) {
        continue;  // stalled waiting for the oldest miss
      }
      ++core.retired;
      if (--core.gap <= 0) {
        core.gap = DrawGap(rng_, core.miss_prob);
        if (core.outstanding < config_.mlp_limit) {
          IssueMiss(n, t);
        } else {
          core.miss_pending = true;
        }
      }
    }
  }

  const AppSimConfig& config_;
  Network& net_;
  const int num_nodes_;
  Rng rng_;
  std::vector<Core> cores_;
  std::vector<Mc> mcs_;
  std::map<Cycle, std::vector<Action>> pending_;
  RunningStat miss_latency_;
};

}  // namespace

double WeightedSpeedup(const AppSimResult& a, const AppSimResult& b) {
  VIXNOC_CHECK(a.core_ipc.size() == b.core_ipc.size());
  VIXNOC_CHECK(!a.core_ipc.empty());
  double sum = 0.0;
  int counted = 0;
  for (std::size_t i = 0; i < a.core_ipc.size(); ++i) {
    if (a.core_ipc[i] <= 0.0) continue;  // idle core: no meaningful ratio
    sum += b.core_ipc[i] / a.core_ipc[i];
    ++counted;
  }
  return counted > 0 ? sum / counted : 1.0;
}

AppSimResult RunAppSim(const AppSimConfig& config,
                       const std::vector<BenchmarkProfile>& core_profiles) {
  // The run ends with the measurement window: no drain, and neither a
  // watchdog nor checkpoints, which AppSimConfig does not offer.
  NetworkSimConfig net;
  net.topology = config.topology;
  net.scheme = config.scheme;
  net.num_vcs = config.num_vcs;
  net.buffer_depth = config.buffer_depth;
  net.arbiter = config.arbiter;
  net.vc_policy = config.vc_policy;
  net.watchdog_cycles = 0;
  net.seed = config.seed;
  net.warmup = config.warmup;
  net.measure = config.measure;
  net.drain = 0;
  SimDriver driver(net, [&](NetworkParams& p) {
    p.router.vc_rng_seed = 0;
    p.router.num_message_classes = config.num_message_classes;
  });
  AppSource source(config, core_profiles, driver);
  driver.Run(source);
  return source.Result();
}

}  // namespace vixnoc::app
