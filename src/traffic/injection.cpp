#include "traffic/injection.hpp"

#include "common/check.hpp"
#include "snapshot/state_archive.hpp"

namespace vixnoc {

BernoulliInjection::BernoulliInjection(double rate) : rate_(rate) {
  VIXNOC_CHECK(rate >= 0.0 && rate <= 1.0);
}

bool BernoulliInjection::ShouldInject(NodeId, Rng& rng) {
  return rng.NextBool(rate_);
}

OnOffInjection::OnOffInjection(int num_nodes, double avg_rate, double on_rate,
                               double mean_burst_cycles)
    : on_rate_(on_rate), on_(static_cast<std::size_t>(num_nodes), false) {
  VIXNOC_CHECK(num_nodes > 0);
  VIXNOC_CHECK(avg_rate >= 0.0 && on_rate > 0.0 && on_rate <= 1.0);
  VIXNOC_CHECK(avg_rate < on_rate);
  VIXNOC_CHECK(mean_burst_cycles >= 1.0);
  duty_ = avg_rate / on_rate;  // fraction of cycles spent ON
  p_on_to_off_ = 1.0 / mean_burst_cycles;
  // Steady state: duty = p_off_on / (p_off_on + p_on_off).
  p_off_to_on_ = duty_ * p_on_to_off_ / (1.0 - duty_);
  VIXNOC_CHECK(p_off_to_on_ <= 1.0);
}

bool OnOffInjection::ShouldInject(NodeId node, Rng& rng) {
  // State transition first, then the injection trial in the new state.
  if (on_[node]) {
    if (rng.NextBool(p_on_to_off_)) on_[node] = false;
  } else {
    if (rng.NextBool(p_off_to_on_)) on_[node] = true;
  }
  return on_[node] && rng.NextBool(on_rate_);
}

void OnOffInjection::Visit(StateArchive& ar) {
  ar.VecBool(on_, "on-off node states");
}

}  // namespace vixnoc
