// Test harness for a standalone Router: it installs dispatch rows whose
// event `port` is the router's own port and a packet table of its own,
// feeds the router flits given as full records, and steps the router into
// a fresh flit slot and credit slot, so a test reads which output each
// flit left on (with its packet's fields) and which input VC each credit
// frees.
#pragma once

#include <cstddef>
#include <map>
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
    router.SetPacketTable(&packets_);
  }
  RouterSlots(const RouterSlots&) = delete;
  RouterSlots& operator=(const RouterSlots&) = delete;

  /// Clears both slots, then steps the router once into them.
  void Step(Cycle now) {
    flits.Clear();
    credits.Clear();
    router_.Step(now, &flits, &credits);
  }

  /// Delivers the flit `rec` describes into input port `in_port`. Its
  /// packet takes a table slot on its first flit; later flits of the same
  /// packet id share it.
  void Accept(PortId in_port, const FlitRecord& rec) {
    const auto [it, fresh] = slot_of_.try_emplace(rec.packet_id, 0);
    if (fresh) it->second = packets_.Acquire(rec.Packet());
    router_.AcceptFlit(in_port, rec.InSlot(it->second));
  }

  /// `flit` with its packet's fields copied in.
  FlitRecord Expand(const Flit& flit) const { return packets_.Expand(flit); }

  std::size_t sent() const { return flits.flits.size(); }
  FlitRecord flit(std::size_t i) const { return Expand(flits.flits[i]); }
  PortId out_port(std::size_t i) const { return flits.events[i].port; }
  /// Every flit the last Step sent, expanded.
  std::vector<FlitRecord> sent_flits() const {
    std::vector<FlitRecord> out;
    for (const Flit& f : flits.flits) out.push_back(Expand(f));
    return out;
  }

  LinkSlot flits;    ///< one event and one payload per flit sent
  LinkSlot credits;  ///< one event (input port, VC) per credit freed

 private:
  Router& router_;
  std::vector<LinkEvent> flit_row_;    // the router reads these rows
  std::vector<LinkEvent> credit_row_;
  PacketTable packets_;
  std::map<PacketId, PacketSlot> slot_of_;
};

}  // namespace vixnoc
