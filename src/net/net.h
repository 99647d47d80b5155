// The network model: serialized pipes, delayed ACKs, packet traces.
//
// Figure 10/11 are pure protocol-timing artifacts, so the model captures
// exactly the mechanics that produce them:
//
//  * NetPipe -- one direction of a 100 Mbps link: packets serialize at the
//    link rate (a 1460-byte segment takes ~117us) and arrive one-way-
//    latency later (56us; the paper measures a 112us RTT).
//  * DelayedAckPolicy -- the receiver-side TCP ACK rules: an ACK is sent
//    immediately for every second outstanding segment, otherwise it is
//    delayed up to 200ms in the hope of piggybacking on outgoing data.
//    Sending a request cancels the pending delayed ACK (the Linux client's
//    behaviour in Figure 11); a registry-style switch disables delaying
//    altogether (the paper's 20%-improvement experiment).
//  * AckLedger -- the sender-side view: how many data segments are unacked.
//    The Windows server refuses to push more data until everything sent so
//    far is acknowledged; that synchronous gate times the 200ms stalls.
//  * PacketTrace -- every packet with send/receive times and a label, so
//    the Figure 11 timelines can be printed directly.
//
// The network mounts built on this model, CifsMount and NfsMount, share
// one client core, RemoteMount (src/net/remote_mount.h), and one server
// side, the exported file system's calls in src/net/exported.h.

#ifndef OSPROF_SRC_NET_NET_H_
#define OSPROF_SRC_NET_NET_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/kernel.h"
#include "src/sim/race_tracker.h"
#include "src/sim/run_queue.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace osnet {

using osim::Cycles;
using osim::Kernel;
using osim::Task;

struct NetConfig {
  // One-way propagation: 56us at 1.7 GHz (112us RTT, paper §3.1).
  Cycles one_way_latency = 95'200;
  // 100 Mbps in bytes per cycle at 1.7 GHz.
  double bytes_per_cycle = 12.5e6 / 1.7e9;
  std::uint32_t mss_bytes = 1460;
  // The delayed-ACK timer: 200ms.
  Cycles delayed_ack_timeout = 340'000'000;
};

enum class PacketKind { kRequest, kData, kAck };

struct PacketRecord {
  Cycles sent_at = 0;
  Cycles received_at = 0;
  std::string from;
  std::string label;
  PacketKind kind = PacketKind::kData;
  std::uint32_t bytes = 0;
};

// Chronological (by receive time) record of a connection's packets.
class PacketTrace {
 public:
  void Record(PacketRecord record) { records_.push_back(std::move(record)); }
  const std::vector<PacketRecord>& records() const { return records_; }
  void Clear() { records_.clear(); }

  // Figure 11-style rendering: one line per packet with ms timestamps.
  std::string Render(double cpu_hz, Cycles origin = 0) const;

 private:
  std::vector<PacketRecord> records_;
};

// One direction of the link.  Packets serialize FIFO at the link rate and
// are delivered (via callback) one-way-latency after serialization ends.
//
// Each packet's serialization ends at least one cycle after the last
// one's and its latency is the pipe's constant, so a pipe's arrivals
// strictly increase and its packets land in the order they were sent.
// The pipe keeps the packets in flight -- each one's delivery callback
// and its sender's SimRace token -- in that FIFO, and each arrival event
// captures only the pipe and delivers the front packet.
class NetPipe {
 public:
  NetPipe(Kernel* kernel, const NetConfig& config, std::string from,
          PacketTrace* trace)
      : kernel_(kernel), config_(config), from_(std::move(from)), trace_(trace) {}

  // Sends `bytes` as one packet; `deliver` runs at arrival time.  The
  // packet's PacketRecord, and so its label, is built only when the pipe
  // has a trace.
  void Send(std::uint32_t bytes, PacketKind kind, std::string_view label,
            std::function<void()> deliver);

  // Splits `bytes` into MSS-sized segments; `on_segment(i, n)` runs as
  // each arrives.  Returns the number of segments.
  int SendSegmented(std::uint32_t bytes, std::string_view label,
                    std::function<void(int index, int total)> on_segment);

  std::uint64_t packets_sent() const { return packets_sent_; }

 private:
  struct InFlight {
    std::function<void()> deliver;
    // The sender's happens-before history, adopted around `deliver` so
    // handlers it spawns (smbd) or tasks it wakes inherit it (empty when
    // tracking is off).
    osim::RaceClock token;
  };

  // The arrival event of the front packet.
  void DeliverFront();

  Kernel* kernel_;
  NetConfig config_;
  std::string from_;
  PacketTrace* trace_;
  Cycles busy_until_ = 0;
  // Arrival time of the last packet sent; the next must arrive later.
  Cycles last_arrival_ = 0;
  std::uint64_t packets_sent_ = 0;
  osim::ChunkedQueue<InFlight, 32> in_flight_;
};

// Sender-side unacked-segment accounting with an awaitable "all acked"
// barrier (the Windows server's synchronous push gate).  ACKs are
// cumulative: each carries the receiver's total received-segment count.
class AckLedger {
 public:
  explicit AckLedger(Kernel* kernel)
      : counts_(*kernel, "net.ack_ledger"), waiters_(kernel, osprof::kLayerNet) {}

  void OnSegmentSent() { ++OSIM_SHARED_RW(counts_).sent; }

  // A cumulative ACK covering the first `upto` segments arrived.
  void OnAckReceived(std::uint64_t upto) {
    AckCounts& counts = OSIM_SHARED_RW(counts_);
    if (upto > counts.acked) {
      counts.acked = upto;
      waiters_.WakeAll();
    }
  }

  bool AllAcked() const {
    const AckCounts& counts = OSIM_SHARED_RO(counts_);
    return counts.acked >= counts.sent;
  }
  std::uint64_t sent() const { return OSIM_SHARED_RO(counts_).sent; }
  std::uint64_t acked() const { return OSIM_SHARED_RO(counts_).acked; }
  // How many WaitAllAcked calls actually had to block: the count of
  // synchronous-push stalls.
  std::uint64_t blocked_waits() const {
    return OSIM_SHARED_RO(counts_).blocked_waits;
  }

  Task<void> WaitAllAcked() {
    if (!AllAcked()) {
      ++OSIM_SHARED_RW(counts_).blocked_waits;
    }
    while (!AllAcked()) {
      co_await waiters_.Wait();
    }
  }

 private:
  // Sent/acked counters mutate from both the sender task and ACK-delivery
  // callbacks while the server blocks in WaitAllAcked, so they live in one
  // race-checked cell (the callbacks run kernel-context and adopt the
  // sender's token, keeping the protocol ordered).
  struct AckCounts {
    std::uint64_t sent = 0;
    std::uint64_t acked = 0;
    std::uint64_t blocked_waits = 0;
  };
  osim::Shared<AckCounts> counts_;
  osim::WaitQueue waiters_;
};

// Receiver-side delayed-ACK policy.
class DelayedAckPolicy {
 public:
  DelayedAckPolicy(Kernel* kernel, const NetConfig& config, NetPipe* ack_pipe,
                   AckLedger* peer_ledger)
      : kernel_(kernel),
        config_(config),
        ack_pipe_(ack_pipe),
        peer_ledger_(peer_ledger) {}

  // The registry switch: when disabled, every segment is ACKed at once.
  void set_delayed_ack_enabled(bool enabled) { delayed_enabled_ = enabled; }
  bool delayed_ack_enabled() const { return delayed_enabled_; }

  // Call for every received data segment.
  void OnDataSegment();

  // Call when the receiver transmits a request of its own: the ACK
  // piggybacks on that packet, so the pending delayed ACK is cancelled
  // locally.  Returns the cumulative received count the piggybacked ACK
  // covers, or 0 if no ACK was pending -- the caller must invoke the peer
  // ledger's OnAckReceived(upto) when the packet *arrives* (the ACK
  // travels with the data, not instantly).
  std::uint64_t ConsumePendingAck();

  std::uint64_t immediate_acks() const { return immediate_acks_; }
  std::uint64_t delayed_acks_fired() const { return delayed_acks_fired_; }
  std::uint64_t piggybacked_acks() const { return piggybacked_acks_; }

 private:
  void SendAckNow(std::string_view label);

  Kernel* kernel_;
  NetConfig config_;
  NetPipe* ack_pipe_;
  AckLedger* peer_ledger_;
  bool delayed_enabled_ = true;
  int unacked_ = 0;
  std::uint64_t received_total_ = 0;
  std::uint64_t timer_generation_ = 0;
  bool timer_armed_ = false;
  std::uint64_t immediate_acks_ = 0;
  std::uint64_t delayed_acks_fired_ = 0;
  std::uint64_t piggybacked_acks_ = 0;
};

}  // namespace osnet

#endif  // OSPROF_SRC_NET_NET_H_
