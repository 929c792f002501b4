// Flits and packets: the units of flow control and of routing (paper §2.1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"

namespace vixnoc {

class StateArchive;

enum class FlitType : std::uint8_t {
  kHead,      ///< first flit of a multi-flit packet; carries routing info
  kBody,      ///< middle flit
  kTail,      ///< last flit; releases VC state downstream
  kHeadTail,  ///< single-flit packet (head and tail at once)
};

/// A flit in flight. The simulator models control state only; payload bits
/// are represented by the configured datapath width when computing energy.
struct Flit {
  PacketId packet_id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  FlitType type = FlitType::kHeadTail;
  std::uint16_t seq = 0;          ///< position within the packet [0, size)
  std::uint16_t packet_size = 1;  ///< flits in the packet
  Cycle created = 0;              ///< cycle the packet entered the source queue
  Cycle injected = kNeverCycle;   ///< cycle the head flit left the NI

  /// Input VC at the *receiving* router: assigned by the upstream router's
  /// VA stage (or by the NI for injected flits).
  VcId vc = kInvalidVc;

  /// Output port at the *receiving* router: lookahead route computation is
  /// performed one hop upstream (Galles [9]), so a flit arrives with its
  /// route already determined.
  PortId route_out = kInvalidPort;

  /// Opaque tag threaded through the network untouched; the application
  /// model uses it to match replies to outstanding requests.
  std::uint64_t user_tag = 0;

  /// Message class (virtual network). Routers with num_message_classes > 1
  /// partition their VCs among classes and never assign a packet to a VC
  /// of another class, giving protocol-level traffic (request vs reply)
  /// disjoint buffer resources.
  std::uint8_t msg_class = 0;

  /// Routing-function-defined state, updated hop by hop (see
  /// RoutingAlgorithm::NextDatelineState). Torus routing uses it to switch
  /// VC classes after crossing a dateline, breaking ring deadlock cycles.
  std::uint8_t dateline = 0;

  /// Payload-corruption marker set by fault injection (fault/fault_model.hpp)
  /// when the flit traverses a faulty link. Control state stays intact —
  /// the flit flows and is delivered — and the destination NI surfaces the
  /// corruption in the packet's PacketRecord (end-to-end detection).
  bool corrupted = false;

  bool IsHead() const {
    return type == FlitType::kHead || type == FlitType::kHeadTail;
  }
  bool IsTail() const {
    return type == FlitType::kTail || type == FlitType::kHeadTail;
  }
};

/// Checkpoint encoding of a flit, field by field in declaration order
/// (implemented in router.cpp). Only the type is bounded here; where the
/// flit sits bounds the rest.
void Visit(StateArchive& ar, Flit& f);
/// Bytes a stored flit takes: the lower bound decoders check element
/// counts against before reserving.
inline constexpr std::size_t kFlitBytes = 56;

/// Helper: flit type for position `seq` within a packet of `size` flits.
inline FlitType FlitTypeFor(int seq, int size) {
  if (size == 1) return FlitType::kHeadTail;
  if (seq == 0) return FlitType::kHead;
  if (seq == size - 1) return FlitType::kTail;
  return FlitType::kBody;
}

}  // namespace vixnoc
