// Test harness for a standalone Router: it installs dispatch rows whose
// event `port` is the router's own port, and steps the router into a
// fresh flit slot and credit slot, so a test reads which output each flit
// left on and which input VC each credit frees.
#pragma once

#include <cstddef>
#include <vector>

#include "router/router.hpp"

namespace vixnoc {

class RouterSlots {
 public:
  explicit RouterSlots(Router& router)
      : router_(router),
        flit_row_(router.config().radix),
        credit_row_(router.config().radix) {
    for (PortId p = 0; p < router.config().radix; ++p) {
      flit_row_[p] = {LinkEvent::Kind::kFlitToRouter, 0, p, kInvalidVc};
      credit_row_[p] = {LinkEvent::Kind::kCreditToRouter, 0, p, kInvalidVc};
    }
    router.SetLinkDispatch(flit_row_.data(), credit_row_.data());
  }
  RouterSlots(const RouterSlots&) = delete;
  RouterSlots& operator=(const RouterSlots&) = delete;

  /// Clears both slots, then steps the router once into them.
  void Step(Cycle now) {
    flits.Clear();
    credits.Clear();
    router_.Step(now, &flits, &credits);
  }

  std::size_t sent() const { return flits.flits.size(); }
  const Flit& flit(std::size_t i) const { return flits.flits[i]; }
  PortId out_port(std::size_t i) const { return flits.events[i].port; }

  LinkSlot flits;    ///< one event and one payload per flit sent
  LinkSlot credits;  ///< one event (input port, VC) per credit freed

 private:
  Router& router_;
  std::vector<LinkEvent> flit_row_;    // the router reads these rows
  std::vector<LinkEvent> credit_row_;
};

}  // namespace vixnoc
