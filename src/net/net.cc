#include "src/net/net.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace osnet {

std::string PacketTrace::Render(double cpu_hz, Cycles origin) const {
  std::ostringstream os;
  for (const PacketRecord& r : records_) {
    const double ms =
        static_cast<double>(r.received_at - origin) / cpu_hz * 1e3;
    char time_buf[32];
    std::snprintf(time_buf, sizeof(time_buf), "%8.1fms", ms);
    const char* kind = r.kind == PacketKind::kRequest ? "REQ "
                       : r.kind == PacketKind::kData  ? "DATA"
                                                      : "ACK ";
    os << time_buf << "  " << kind << "  " << r.from << "  " << r.label
       << " (" << r.bytes << "B)\n";
  }
  return os.str();
}

void NetPipe::Send(std::uint32_t bytes, PacketKind kind, std::string_view label,
                   std::function<void()> deliver) {
  const Cycles now = kernel_->now();
  const Cycles start = std::max(now, busy_until_);
  const auto serialization = static_cast<Cycles>(
      std::max(1.0, static_cast<double>(bytes) / config_.bytes_per_cycle));
  const Cycles arrive = start + serialization + config_.one_way_latency;
  if (arrive <= last_arrival_) {
    throw std::logic_error("NetPipe: a packet would overtake the one before");
  }
  busy_until_ = start + serialization;
  last_arrival_ = arrive;
  ++packets_sent_;
  if (trace_ != nullptr) {
    // Only a trace reads the record.  It lands with the packet, so the
    // trace stays in receive order across the pipes that share it.
    PacketRecord record{now, arrive, from_, std::string(label), kind, bytes};
    deliver = [trace = trace_, record = std::move(record),
               inner = std::move(deliver)]() mutable {
      trace->Record(std::move(record));
      if (inner) {
        inner();
      }
    };
  }
  InFlight packet{std::move(deliver), kernel_->races().Capture()};
  in_flight_.push_back(std::move(packet));
  kernel_->events().At(arrive, [this] { DeliverFront(); });
}

void NetPipe::DeliverFront() {
  InFlight packet = std::exchange(in_flight_.front(), InFlight{});
  in_flight_.pop_front();
  // Race tracking adopts the sender's history around delivery (Adopt and
  // Drop do nothing with tracking off).
  kernel_->races().Adopt(packet.token);
  if (packet.deliver) {
    packet.deliver();
  }
  kernel_->races().Drop();
}

int NetPipe::SendSegmented(std::uint32_t bytes, std::string_view label,
                           std::function<void(int, int)> on_segment) {
  const int total = static_cast<int>(
      std::max<std::uint32_t>(1, (bytes + config_.mss_bytes - 1) / config_.mss_bytes));
  // Every segment calls the one callback.
  const auto shared =
      std::make_shared<std::function<void(int, int)>>(std::move(on_segment));
  std::string seg_label;
  std::uint32_t remaining = bytes;
  for (int i = 0; i < total; ++i) {
    const std::uint32_t chunk = std::min(remaining, config_.mss_bytes);
    remaining -= chunk;
    if (trace_ != nullptr) {
      // The label only names the segment in the trace.
      seg_label = label;
      if (total > 1) {
        seg_label += i == 0 ? " reply" : " reply continuation ";
        if (i > 0) {
          seg_label += std::to_string(i);
        }
      }
    }
    Send(chunk, PacketKind::kData, seg_label,
         [shared, i, total] { (*shared)(i, total); });
  }
  return total;
}

void DelayedAckPolicy::SendAckNow(std::string_view label) {
  unacked_ = 0;
  ++timer_generation_;  // Invalidate any pending timer.
  timer_armed_ = false;
  AckLedger* ledger = peer_ledger_;
  const std::uint64_t upto = received_total_;
  ack_pipe_->Send(64, PacketKind::kAck, label,
                  [ledger, upto] { ledger->OnAckReceived(upto); });
}

void DelayedAckPolicy::OnDataSegment() {
  ++received_total_;
  if (!delayed_enabled_) {
    ++immediate_acks_;
    SendAckNow("ACK (immediate)");
    return;
  }
  ++unacked_;
  if (unacked_ >= 2) {
    // Every second segment is acknowledged at once (RFC 1122 behaviour).
    ++immediate_acks_;
    SendAckNow("ACK of continuation");
    return;
  }
  if (!timer_armed_) {
    timer_armed_ = true;
    const std::uint64_t generation = ++timer_generation_;
    kernel_->events().After(config_.delayed_ack_timeout, [this, generation] {
      if (generation != timer_generation_ || !timer_armed_) {
        return;  // Cancelled: an ACK went out some other way.
      }
      ++delayed_acks_fired_;
      SendAckNow("ACK (delayed 200ms)");
    });
  }
}

std::uint64_t DelayedAckPolicy::ConsumePendingAck() {
  if (unacked_ > 0 || timer_armed_) {
    ++piggybacked_acks_;
    unacked_ = 0;
    ++timer_generation_;
    timer_armed_ = false;
    return received_total_;
  }
  return 0;
}

}  // namespace osnet
