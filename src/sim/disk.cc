#include "src/sim/disk.h"

#include <algorithm>
#include <bit>
#include <new>
#include <stdexcept>

namespace osim {

SimDisk::SimDisk(Kernel* kernel, DiskConfig config)
    : kernel_(kernel),
      config_(config),
      cache_(config.num_blocks, config.cache_blocks) {
  if (config_.blocks_per_track == 0 || config_.num_blocks == 0) {
    throw std::invalid_argument("disk geometry must be non-zero");
  }
}

void SimDisk::Submit(DiskOp op, std::uint64_t lba, std::uint64_t count,
                     Completion done) {
  if (count == 0 || lba + count > config_.num_blocks) {
    throw std::out_of_range("disk request outside device");
  }
  queue_.push_back(Request{op, lba, count, done, kernel_->now(),
                           kernel_->races().Capture()});
  if (!busy_) {
    StartNext();
  }
}

SimDisk::Request SimDisk::PopNext() {
  std::size_t chosen = 0;
  if (config_.sched == DiskSchedPolicy::kElevator && queue_.size() > 1) {
    // C-LOOK: smallest LBA at or above the head; if the upward sweep is
    // exhausted, restart from the smallest pending LBA.
    bool found_above = false;
    std::uint64_t best_above = 0;
    std::size_t best_above_idx = 0;
    std::uint64_t best_low = ~std::uint64_t{0};
    std::size_t best_low_idx = 0;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const std::uint64_t lba = queue_[i].lba;
      if (lba >= head_ && (!found_above || lba < best_above)) {
        found_above = true;
        best_above = lba;
        best_above_idx = i;
      }
      if (lba < best_low) {
        best_low = lba;
        best_low_idx = i;
      }
    }
    chosen = found_above ? best_above_idx : best_low_idx;
  }
  Request request = std::move(queue_[chosen]);
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(chosen));
  return request;
}

void SimDisk::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  busy_ = true;
  Request request = PopNext();

  in_flight_ = DiskRequestInfo{};
  in_flight_.op = request.op;
  in_flight_.lba = request.lba;
  in_flight_.count = request.count;
  in_flight_.queued_at = request.queued_at;
  in_flight_.started_at = kernel_->now();
  const Cycles service = ServiceTime(request, &in_flight_.cache_hit);
  in_flight_done_ = request.done;
  in_flight_token_ = std::move(request.token);
  kernel_->events().After(service, [this] { FinishInFlight(); });
}

void SimDisk::FinishInFlight() {
  DiskRequestInfo completed = in_flight_;
  completed.completed_at = kernel_->now();
  ++completed_;
  if (observer_) {
    observer_(completed);
  }
  // Adopt the submitter's history around the completion so tasks it wakes
  // or spawns are ordered after the submit (no-ops with tracking off).
  kernel_->races().Adopt(in_flight_token_);
  if (in_flight_done_) {
    in_flight_done_(completed);
  }
  kernel_->races().Drop();
  StartNext();
}

Cycles SimDisk::ServiceTime(const Request& request, bool* cache_hit) {
  const Cycles transfer = config_.transfer_per_block * request.count;
  if (request.op == DiskOp::kRead &&
      cache_.Contains(request.lba, request.count)) {
    *cache_hit = true;
    ++cache_hits_;
    return config_.controller_overhead + transfer;
  }
  *cache_hit = false;
  ++mechanical_;

  // Seek: linear interpolation between track-to-track and full stroke.
  const std::uint64_t track_now = head_ / config_.blocks_per_track;
  const std::uint64_t track_target = request.lba / config_.blocks_per_track;
  const std::uint64_t distance =
      track_now > track_target ? track_now - track_target : track_target - track_now;
  Cycles seek = 0;
  if (distance > 0) {
    const std::uint64_t total_tracks =
        config_.num_blocks / config_.blocks_per_track;
    const double frac =
        static_cast<double>(distance) / static_cast<double>(total_tracks);
    seek = config_.track_to_track_seek +
           static_cast<Cycles>(
               frac * static_cast<double>(config_.full_stroke_seek -
                                          config_.track_to_track_seek));
  }

  // Rotational delay: uniform over a revolution.
  const Cycles rotation =
      static_cast<Cycles>(kernel_->rng().Below(config_.full_rotation));

  head_ = request.lba + request.count;

  if (request.op == DiskOp::kRead) {
    // Firmware readahead: the rest of the segment streams into the disk
    // cache, so sequential successors become cache hits (Figure 7's third
    // peak).
    cache_.InsertRun(request.lba, config_.readahead_blocks);
  } else {
    // Writes invalidate overlapping cached data; keep it simple and treat
    // the written run as cached afterwards (write-through segment reuse).
    cache_.InsertRun(request.lba, request.count);
  }

  return config_.controller_overhead + seek + rotation + transfer;
}

namespace {

// The bits of blocks [lba, end) that fall in word `w`.
std::uint64_t WordMask(std::uint64_t w, std::uint64_t lba, std::uint64_t end) {
  const std::uint64_t first = std::max(lba, w * 64) - w * 64;
  const std::uint64_t last = std::min(end, w * 64 + 64) - w * 64;
  const std::uint64_t high =
      last == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << last) - 1;
  return high & ~((std::uint64_t{1} << first) - 1);
}

}  // namespace

void DiskBlockCache::InsertRun(std::uint64_t lba, std::uint64_t count) {
  if (lba + count > num_blocks_) {
    count = num_blocks_ - lba;
  }
  if (count == 0) {
    return;  // An empty run caches and evicts nothing.
  }
  if (bits_ == nullptr) {
    const std::size_t words = (num_blocks_ + 63) / 64;
    bits_.reset(
        static_cast<std::uint64_t*>(std::calloc(words, sizeof(std::uint64_t))));
    if (bits_ == nullptr) {
      throw std::bad_alloc();
    }
  }
  const std::uint64_t end = lba + count;
  for (std::uint64_t w = lba / 64; w * 64 < end; ++w) {
    const std::uint64_t mask = WordMask(w, lba, end);
    cached_blocks_ +=
        static_cast<std::uint64_t>(std::popcount(mask & ~bits_[w]));
    bits_[w] |= mask;
  }
  runs_.push_back({lba, count});
  while (cached_blocks_ > capacity_blocks_ && !runs_.empty()) {
    const auto [run_lba, run_count] = runs_.front();
    runs_.pop_front();
    cached_blocks_ -= ClearRun(run_lba, run_count);
  }
}

std::uint64_t DiskBlockCache::ClearRun(std::uint64_t lba, std::uint64_t count) {
  std::uint64_t cleared = 0;
  const std::uint64_t end = lba + count;
  for (std::uint64_t w = lba / 64; w * 64 < end; ++w) {
    const std::uint64_t mask = WordMask(w, lba, end);
    cleared += static_cast<std::uint64_t>(std::popcount(mask & bits_[w]));
    bits_[w] &= ~mask;
  }
  return cleared;
}

bool DiskBlockCache::Contains(std::uint64_t lba, std::uint64_t count) const {
  if (count == 0) {
    return true;
  }
  if (bits_ == nullptr) {
    return false;
  }
  const std::uint64_t end = lba + count;
  for (std::uint64_t w = lba / 64; w * 64 < end; ++w) {
    const std::uint64_t mask = WordMask(w, lba, end);
    if ((bits_[w] & mask) != mask) {
      return false;
    }
  }
  return true;
}

void DiskBlockCache::Clear() {
  // Every set bit lies in a run still queued (an evicted run cleared its
  // blocks), so clearing the queued runs clears the bitmap.
  while (!runs_.empty()) {
    const auto [run_lba, run_count] = runs_.front();
    runs_.pop_front();
    ClearRun(run_lba, run_count);
  }
  cached_blocks_ = 0;
}

void SimDisk::DropCache() { cache_.Clear(); }

Task<DiskRequestInfo> SimDisk::SyncRead(std::uint64_t lba, std::uint64_t count) {
  WaitQueue done(kernel_, osprof::kLayerDriver);
  DiskRequestInfo result;
  bool complete = false;
  Submit(DiskOp::kRead, lba, count, [&result, &complete, &done](const DiskRequestInfo& info) {
    result = info;
    complete = true;
    done.WakeAll();
  });
  while (!complete) {
    co_await done.Wait();
  }
  co_return result;
}

Task<DiskRequestInfo> SimDisk::SyncWrite(std::uint64_t lba, std::uint64_t count) {
  WaitQueue done(kernel_, osprof::kLayerDriver);
  DiskRequestInfo result;
  bool complete = false;
  Submit(DiskOp::kWrite, lba, count, [&result, &complete, &done](const DiskRequestInfo& info) {
    result = info;
    complete = true;
    done.WakeAll();
  });
  while (!complete) {
    co_await done.Wait();
  }
  co_return result;
}

}  // namespace osim
