// Flits and packets: the units of flow control and of routing (paper §2.1).
//
// A flit carries per hop only what changes along the way: its VC,
// lookahead route and dateline state, plus its position in the packet.
// Everything that belongs to the packet (id, endpoints, size, timestamps,
// user tag, message class) lives once in the network's PacketTable, from
// the cycle the source NI starts the packet until its tail ejects; the
// flit names its table slot. So every buffer slot and link slot holds a
// 16-byte flit.
//
// Checkpoints store flits in their expanded form (FlitRecord: a 56-byte
// record with the packet's fields copied in). A restore interns those
// records by packet id, and refuses a packet whose records disagree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace vixnoc {

class StateArchive;

enum class FlitType : std::uint8_t {
  kHead,      ///< first flit of a multi-flit packet; carries routing info
  kBody,      ///< middle flit
  kTail,      ///< last flit; releases VC state downstream
  kHeadTail,  ///< single-flit packet (head and tail at once)
};

/// Helper: flit type for position `seq` within a packet of `size` flits.
inline FlitType FlitTypeFor(int seq, int size) {
  if (size == 1) return FlitType::kHeadTail;
  if (seq == 0) return FlitType::kHead;
  if (seq == size - 1) return FlitType::kTail;
  return FlitType::kBody;
}

/// The largest packet: a flit's seq and its packet's size are 16 bits.
inline constexpr int kMaxPacketFlits =
    std::numeric_limits<std::uint16_t>::max();

/// Index of a packet's entry in its network's PacketTable.
using PacketSlot = std::uint32_t;
inline constexpr PacketSlot kNoPacketSlot =
    std::numeric_limits<PacketSlot>::max();

/// Per-packet state, fixed for the packet's life except `injected`, which
/// the NI sets when it sends the head flit.
struct PacketInfo {
  PacketId id = 0;
  Cycle created = 0;              ///< cycle the packet entered the source queue
  Cycle injected = kNeverCycle;   ///< cycle the head flit left the NI
  /// Opaque tag threaded through the network untouched; the application
  /// model uses it to match replies to outstanding requests.
  std::uint64_t user_tag = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  std::uint16_t size = 1;  ///< flits in the packet
  /// Message class (virtual network). Routers with num_message_classes > 1
  /// partition their VCs among classes and never assign a packet to a VC
  /// of another class, giving protocol-level traffic (request vs reply)
  /// disjoint buffer resources.
  std::uint8_t msg_class = 0;

  bool operator==(const PacketInfo&) const = default;
};

/// A flit in flight. The simulator models control state only; payload bits
/// are represented by the configured datapath width when computing energy.
struct Flit {
  PacketSlot packet = kNoPacketSlot;  ///< its packet's PacketTable slot
  std::uint16_t seq = 0;  ///< position within the packet [0, size)
  FlitType type = FlitType::kHeadTail;  ///< FlitTypeFor(seq, size)

  /// Routing-function-defined state, updated hop by hop (see
  /// RoutingAlgorithm::NextDatelineState). Torus routing uses it to switch
  /// VC classes after crossing a dateline, breaking ring deadlock cycles.
  std::uint8_t dateline = 0;

  /// Input VC at the *receiving* router: assigned by the upstream router's
  /// VA stage (or by the NI for injected flits). Routers bound num_vcs and
  /// radix to 16 bits.
  std::int16_t vc = kInvalidVc;

  /// Output port at the *receiving* router: lookahead route computation is
  /// performed one hop upstream (Galles [9]), so a flit arrives with its
  /// route already determined.
  std::int16_t route_out = kInvalidPort;

  /// Payload-corruption marker set by fault injection (fault/fault_model.hpp)
  /// when the flit traverses a faulty link. Control state stays intact —
  /// the flit flows and is delivered — and the destination NI surfaces the
  /// damage through PacketRecord::corrupted.
  bool corrupted = false;

  bool IsHead() const {
    return type == FlitType::kHead || type == FlitType::kHeadTail;
  }
  bool IsTail() const {
    return type == FlitType::kTail || type == FlitType::kHeadTail;
  }
};
static_assert(sizeof(Flit) <= 16);

/// A flit with its packet's fields copied in: the form checkpoints store
/// and the flit tracer reports.
struct FlitRecord {
  PacketId packet_id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  FlitType type = FlitType::kHeadTail;
  std::uint16_t seq = 0;
  std::uint16_t packet_size = 1;
  Cycle created = 0;
  Cycle injected = kNeverCycle;
  VcId vc = kInvalidVc;
  PortId route_out = kInvalidPort;
  std::uint64_t user_tag = 0;
  std::uint8_t msg_class = 0;
  std::uint8_t dateline = 0;
  bool corrupted = false;

  bool IsTail() const {
    return type == FlitType::kTail || type == FlitType::kHeadTail;
  }
  /// The record's packet fields.
  PacketInfo Packet() const;
  /// The record's own fields, as a flit of the packet in slot `packet`.
  Flit InSlot(PacketSlot packet) const;
};

/// Checkpoint encoding of a flit record, field by field in declaration
/// order. Only the type is bounded here: PacketTable::Intern bounds the
/// packet's fields, and where the flit sits bounds its VC and route.
void Visit(StateArchive& ar, FlitRecord& f);
/// Bytes a stored flit takes: the lower bound decoders check element
/// counts against before reserving.
inline constexpr std::size_t kFlitBytes = 56;

/// The per-packet state of every packet between injection and ejection.
/// Slots come from a LIFO free list, so which slot a packet gets depends
/// only on the order of acquisitions and releases. No simulated result
/// reads a slot number.
class PacketTable {
 public:
  PacketSlot Acquire(const PacketInfo& info);
  void Release(PacketSlot slot) { free_.push_back(slot); }

  PacketInfo& operator[](PacketSlot slot) { return slots_[slot]; }
  const PacketInfo& operator[](PacketSlot slot) const { return slots_[slot]; }

  /// `flit` with its packet's fields copied in.
  FlitRecord Expand(const Flit& flit) const;

  /// Starts a restore: empties the table. Interned packets must name nodes
  /// in [0, num_nodes) and classes in [0, num_classes).
  void BeginRestore(int num_nodes, int num_classes);
  /// Ends a restore: drops the packet-id index Intern builds.
  void EndRestore();
  /// Loading: the flit `rec` describes. Its seq must lie inside its packet
  /// and its type follow from both; its packet is interned, and a tail
  /// flit ends it (see the packet overload).
  Flit Intern(StateArchive& ar, const FlitRecord& rec);
  /// Loading: the slot of the packet `info` describes. The first record of
  /// a packet id takes a slot; every later one must agree with it field
  /// for field. A packet has at most one end, its tail flit or its NI
  /// transmission (`ends`), so no slot is released twice.
  PacketSlot Intern(StateArchive& ar, const PacketInfo& info, bool ends);

 private:
  std::vector<PacketInfo> slots_;
  std::vector<PacketSlot> free_;
  // Restore scratch: the slot of each interned packet id, and whether
  // each slot's end was seen.
  std::unordered_map<PacketId, PacketSlot> restoring_;
  std::vector<bool> ended_;
  int num_nodes_ = 0;
  int num_classes_ = 0;
};

}  // namespace vixnoc
