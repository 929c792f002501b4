// Injection processes: when does a node offer a packet?
//
// The paper's evaluation uses a Bernoulli process (independent coin flip
// per node per cycle). Real traffic is burstier; the on-off (Markov
// modulated Bernoulli) process is the standard model: a node alternates
// between an ON state injecting at a high rate and a silent OFF state,
// with geometrically distributed sojourn times, while matching a target
// average rate.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace vixnoc {

class StateArchive;

class InjectionProcess {
 public:
  virtual ~InjectionProcess() = default;

  /// One trial for `node` this cycle; must be called exactly once per node
  /// per cycle.
  virtual bool ShouldInject(NodeId node, Rng& rng) = 0;

  virtual std::string Name() const = 0;

  /// Checkpoint/restore of the process's mutable state (the Markov state of
  /// on-off traffic; Bernoulli is stateless). The caller's Rng stream is
  /// serialized separately.
  virtual void Visit(StateArchive& ar) = 0;
};

/// Independent Bernoulli(rate) trials.
class BernoulliInjection final : public InjectionProcess {
 public:
  explicit BernoulliInjection(double rate);
  bool ShouldInject(NodeId node, Rng& rng) override;
  std::string Name() const override { return "bernoulli"; }
  void Visit(StateArchive&) override {}

 private:
  double rate_;
};

/// Two-state Markov modulated process. While ON, a node injects with
/// probability `on_rate` per cycle; while OFF it is silent. The mean ON
/// sojourn is `mean_burst_cycles`; the OFF sojourn is set so the long-run
/// average injection rate equals `avg_rate`. Requires avg_rate < on_rate.
class OnOffInjection final : public InjectionProcess {
 public:
  OnOffInjection(int num_nodes, double avg_rate, double on_rate,
                 double mean_burst_cycles);
  bool ShouldInject(NodeId node, Rng& rng) override;
  std::string Name() const override { return "on-off"; }
  void Visit(StateArchive& ar) override;

  /// Fraction of time a node spends ON in steady state.
  double DutyCycle() const { return duty_; }

 private:
  double on_rate_;
  double p_on_to_off_;
  double p_off_to_on_;
  double duty_;
  std::vector<bool> on_;
};

}  // namespace vixnoc
