// The disk model.
//
// Reproduces the mechanical and caching behaviour behind Figure 7's third
// and fourth readdir peaks:
//
//  * seeking: track-to-track 0.3ms up to full-stroke 8ms, linear in track
//    distance (the paper's Maxtor Atlas 15k RPM drive);
//  * rotational delay: uniform in [0, 4ms) (15,000 RPM);
//  * an on-disk segment cache with readahead: sequential requests that hit
//    it cost only controller + bus transfer time (~40-80us -> buckets
//    16-17), while mechanical accesses land in buckets 18-23;
//  * FIFO request queue with one request in service at a time, so
//    concurrent I/O exhibits queueing delays.
//
// The segment cache (DiskBlockCache) is one bit per block plus a FIFO of
// the runs that set them.  Its bitmap is allocated, zeroed by calloc, on
// the first cached block, so a disk that caches nothing costs no setup
// time and no memory; after that, caching, evicting and dropping runs
// allocate nothing.
//
// Requests complete via callback (the form used by the page cache and by
// asynchronous writes, whose latency is only visible to a driver-level
// profiler) or via the awaitable SyncRead/SyncWrite, which block the
// calling simulated thread.  A completion is an InlineCallable, like an
// event: at most 24 bytes of trivially copyable captures.
//
// The disk serves one request at a time and holds that request -- its
// DiskRequestInfo, its completion and its submitter's SimRace token --
// as members, so the event that ends the service captures only the disk.
//
// Driver-level profiling (Figure 2's lowest layer) attaches through
// SetRequestObserver, which sees every request with its queue and service
// latencies.

#ifndef OSPROF_SRC_SIM_DISK_H_
#define OSPROF_SRC_SIM_DISK_H_

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "src/sim/kernel.h"
#include "src/sim/run_queue.h"
#include "src/sim/sync.h"

namespace osim {

// Request-queue scheduling policy.
//
//  * kFifo     -- serve requests in arrival order (the paper-era default
//                 for simple drivers).
//  * kElevator -- C-LOOK: serve the request with the smallest LBA at or
//                 above the head, sweeping upward; jump back to the
//                 lowest pending LBA when the sweep ends.  This is the
//                 I/O-scheduler behaviour OSprof can expose via latency
//                 profiles (queue latencies redistribute: sequential
//                 streams win, far-away requests wait longer).
enum class DiskSchedPolicy { kFifo, kElevator };

struct DiskConfig {
  DiskSchedPolicy sched = DiskSchedPolicy::kFifo;
  std::uint64_t num_blocks = 4'000'000;    // 512-byte logical blocks.
  std::uint64_t blocks_per_track = 1'000;
  // All times in cycles at the paper's 1.7 GHz.
  Cycles track_to_track_seek = 510'000;    // 0.3 ms.
  Cycles full_stroke_seek = 13'600'000;    // 8 ms.
  Cycles full_rotation = 6'800'000;        // 4 ms (15k RPM).
  Cycles controller_overhead = 30'000;     // ~18 us command processing.
  Cycles transfer_per_block = 6'000;       // ~3.5 us/512B over the bus.
  // On-disk cache: segments of readahead_blocks; total capacity in blocks.
  std::uint64_t cache_blocks = 16'384;
  std::uint64_t readahead_blocks = 64;
};

enum class DiskOp { kRead, kWrite };

// What a driver-level profiler observes per request.
struct DiskRequestInfo {
  DiskOp op = DiskOp::kRead;
  std::uint64_t lba = 0;
  std::uint64_t count = 0;
  bool cache_hit = false;
  Cycles queued_at = 0;
  Cycles started_at = 0;
  Cycles completed_at = 0;

  Cycles queue_latency() const { return started_at - queued_at; }
  Cycles service_latency() const { return completed_at - started_at; }
  Cycles total_latency() const { return completed_at - queued_at; }
};

// The on-disk segment cache: which blocks are cached, and the runs that
// cached them, oldest first.  Runs are inserted whole, and eviction drops
// the oldest run, clearing every block it covers even if a later run
// covers it too.
class DiskBlockCache {
 public:
  DiskBlockCache(std::uint64_t num_blocks, std::uint64_t capacity_blocks)
      : num_blocks_(num_blocks), capacity_blocks_(capacity_blocks) {}

  // Caches blocks [lba, lba + count), clamped at the device end, as one
  // run; then evicts the oldest runs while more than the capacity is
  // cached.
  void InsertRun(std::uint64_t lba, std::uint64_t count);
  // True if every block of [lba, lba + count) is cached.
  bool Contains(std::uint64_t lba, std::uint64_t count) const;
  // Uncaches everything.  The bitmap stays allocated.
  void Clear();

  std::uint64_t cached_blocks() const { return cached_blocks_; }

 private:
  // Clears the bits of blocks [lba, lba + count); returns how many were
  // set.
  std::uint64_t ClearRun(std::uint64_t lba, std::uint64_t count);

  struct FreeDeleter {
    void operator()(std::uint64_t* p) const { std::free(p); }
  };

  std::uint64_t num_blocks_;
  std::uint64_t capacity_blocks_;
  // Bit b % 64 of word b / 64 is block b; null until a block is cached.
  std::unique_ptr<std::uint64_t[], FreeDeleter> bits_;
  ChunkedQueue<std::pair<std::uint64_t, std::uint64_t>, 256> runs_;
  std::uint64_t cached_blocks_ = 0;
};

class SimDisk {
 public:
  // Empty (nullptr) for a request nobody waits on.
  using Completion = InlineCallable<void(const DiskRequestInfo&)>;
  using Observer = std::function<void(const DiskRequestInfo&)>;

  SimDisk(Kernel* kernel, DiskConfig config = {});

  const DiskConfig& config() const { return config_; }

  // Asynchronous request; `done` runs at completion time (may be null).
  void Submit(DiskOp op, std::uint64_t lba, std::uint64_t count,
              Completion done);

  // Awaitable wrappers: block the calling simulated thread until the
  // request completes.
  Task<DiskRequestInfo> SyncRead(std::uint64_t lba, std::uint64_t count);
  Task<DiskRequestInfo> SyncWrite(std::uint64_t lba, std::uint64_t count);

  // Driver-level profiler hook: called once per completed request.
  void SetRequestObserver(Observer observer) { observer_ = std::move(observer); }

  // Statistics.
  std::uint64_t requests_completed() const { return completed_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t mechanical_accesses() const { return mechanical_; }
  std::uint64_t current_head() const { return head_; }

  // Drops the on-disk cache (for experiments needing cold state).
  void DropCache();

 private:
  struct Request {
    DiskOp op;
    std::uint64_t lba;
    std::uint64_t count;
    Completion done;
    Cycles queued_at;
    // Submitter's happens-before history, adopted around `done` so work
    // the completion triggers inherits it (empty when tracking is off).
    RaceClock token;
  };

  void StartNext();
  // The in-flight request's service ends: observer, completion, next.
  void FinishInFlight();
  // Removes and returns the next request per the scheduling policy.
  Request PopNext();
  Cycles ServiceTime(const Request& request, bool* cache_hit);

  Kernel* kernel_;
  DiskConfig config_;
  std::deque<Request> queue_;
  bool busy_ = false;
  // The request in service while busy_.
  DiskRequestInfo in_flight_;
  Completion in_flight_done_;
  RaceClock in_flight_token_;
  std::uint64_t head_ = 0;
  DiskBlockCache cache_;
  Observer observer_;
  std::uint64_t completed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t mechanical_ = 0;
};

}  // namespace osim

#endif  // OSPROF_SRC_SIM_DISK_H_
