#include "router/flit.hpp"

#include "snapshot/state_archive.hpp"

namespace vixnoc {

void Visit(StateArchive& ar, FlitRecord& f) {
  ar.U64(f.packet_id);
  ar.I32(f.src);
  ar.I32(f.dst);
  ar.Enum8(f.type, FlitType::kHeadTail, "flit type");
  ar.U16(f.seq);
  ar.U16(f.packet_size);
  ar.U64(f.created);
  ar.U64(f.injected);
  ar.I32(f.vc);
  ar.I32(f.route_out);
  ar.U64(f.user_tag);
  ar.U8(f.msg_class);
  ar.U8(f.dateline);
  ar.B(f.corrupted);
}

PacketInfo FlitRecord::Packet() const {
  PacketInfo p;
  p.id = packet_id;
  p.created = created;
  p.injected = injected;
  p.user_tag = user_tag;
  p.src = src;
  p.dst = dst;
  p.size = packet_size;
  p.msg_class = msg_class;
  return p;
}

Flit FlitRecord::InSlot(PacketSlot packet) const {
  Flit flit;
  flit.packet = packet;
  flit.seq = seq;
  flit.type = type;
  flit.dateline = dateline;
  flit.vc = static_cast<std::int16_t>(vc);
  flit.route_out = static_cast<std::int16_t>(route_out);
  flit.corrupted = corrupted;
  return flit;
}

PacketSlot PacketTable::Acquire(const PacketInfo& info) {
  if (free_.empty()) {
    slots_.push_back(info);
    return static_cast<PacketSlot>(slots_.size() - 1);
  }
  const PacketSlot slot = free_.back();
  free_.pop_back();
  slots_[slot] = info;
  return slot;
}

FlitRecord PacketTable::Expand(const Flit& flit) const {
  const PacketInfo& p = slots_[flit.packet];
  FlitRecord rec;
  rec.packet_id = p.id;
  rec.src = p.src;
  rec.dst = p.dst;
  rec.type = flit.type;
  rec.seq = flit.seq;
  rec.packet_size = p.size;
  rec.created = p.created;
  rec.injected = p.injected;
  rec.vc = flit.vc;
  rec.route_out = flit.route_out;
  rec.user_tag = p.user_tag;
  rec.msg_class = p.msg_class;
  rec.dateline = flit.dateline;
  rec.corrupted = flit.corrupted;
  return rec;
}

void PacketTable::BeginRestore(int num_nodes, int num_classes) {
  slots_.clear();
  free_.clear();
  restoring_.clear();
  ended_.clear();
  num_nodes_ = num_nodes;
  num_classes_ = num_classes;
}

void PacketTable::EndRestore() {
  restoring_ = {};
  ended_ = {};
}

Flit PacketTable::Intern(StateArchive& ar, const FlitRecord& rec) {
  ar.Require(rec.seq < rec.packet_size &&
                 rec.type == FlitTypeFor(rec.seq, rec.packet_size),
             "restored flit %u of packet %llu (%u flits) has type %u",
             rec.seq, static_cast<unsigned long long>(rec.packet_id),
             rec.packet_size, static_cast<unsigned>(rec.type));
  return rec.InSlot(Intern(ar, rec.Packet(), rec.IsTail()));
}

PacketSlot PacketTable::Intern(StateArchive& ar, const PacketInfo& info,
                               bool ends) {
  ar.Require(info.src >= 0 && info.src < num_nodes_ && info.dst >= 0 &&
                 info.dst < num_nodes_ && info.size >= 1 &&
                 info.msg_class < num_classes_,
             "restored packet %llu has source %d, destination %d, size %u or "
             "class %u out of range",
             static_cast<unsigned long long>(info.id), info.src, info.dst,
             info.size, info.msg_class);
  const auto [it, fresh] =
      restoring_.try_emplace(info.id, static_cast<PacketSlot>(slots_.size()));
  const PacketSlot slot = it->second;
  if (fresh) {
    slots_.push_back(info);
    ended_.push_back(false);
  }
  ar.Require(slots_[slot] == info,
             "restored records of packet %llu disagree on its fields",
             static_cast<unsigned long long>(info.id));
  ar.Require(!(ends && ended_[slot]),
             "restored packet %llu ends twice (a second tail flit, or a tail "
             "flit while its NI still sends it)",
             static_cast<unsigned long long>(info.id));
  if (ends) ended_[slot] = true;
  return slot;
}

}  // namespace vixnoc
