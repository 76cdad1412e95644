#include "analognf/aqm/aqm_queue.hpp"

namespace analognf::aqm {
namespace {

AqmContext ContextOf(const net::PacketQueue& queue,
                     const net::PacketMeta& packet, double now_s,
                     double sojourn_s) {
  AqmContext ctx;
  ctx.now_s = now_s;
  ctx.sojourn_s = sojourn_s;
  ctx.queue_bytes = queue.bytes();
  ctx.queue_packets = queue.packets();
  ctx.packet = packet;
  return ctx;
}

}  // namespace

AqmQueue::AqmQueue(net::PacketQueue::Config config, AqmPolicy& policy)
    : queue_(config), policy_(policy) {}

Admission AqmQueue::Offer(net::PacketMeta meta, double now_s) {
  const AqmVerdict verdict = policy_.DecideOnEnqueue(
      ContextOf(queue_, meta, now_s, queue_.HeadSojourn(now_s)));
  if (verdict == AqmVerdict::kDrop) {
    queue_.NoteAqmDrop(meta);
    return Admission::kAqmDropped;
  }
  if (verdict == AqmVerdict::kMark) {
    meta.ecn_marked = true;
    ++marks_;
  }
  if (!queue_.Enqueue(meta, now_s)) return Admission::kTailDropped;
  return verdict == AqmVerdict::kMark ? Admission::kMarked
                                      : Admission::kEnqueued;
}

bool AqmQueue::DropsHead(const net::DequeuedPacket& head, double now_s) {
  if (!policy_.ShouldDropOnDequeue(
          ContextOf(queue_, head.meta, now_s, head.sojourn_s))) {
    return false;
  }
  queue_.NoteAqmDrop(head.meta);
  return true;
}

}  // namespace analognf::aqm
