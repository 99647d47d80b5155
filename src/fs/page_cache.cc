#include "src/fs/page_cache.h"

namespace osfs {

PageCache::PageCache(Kernel* kernel, SimDisk* disk,
                     std::uint64_t capacity_pages)
    : kernel_(kernel),
      disk_(disk),
      capacity_pages_(capacity_pages),
      pages_(*kernel, "page_cache.pages") {}

bool PageCache::Contains(const PageKey& key) {
  auto& pages = OSIM_SHARED_RW(pages_);  // Refreshes LRU state.
  auto it = pages.find(key);
  if (it != pages.end() && it->second.valid) {
    ++hits_;
    Touch(key, it->second);
    return true;
  }
  ++misses_;
  return false;
}

bool PageCache::IoInProgress(const PageKey& key) const {
  const auto& pages = OSIM_SHARED_RO(pages_);
  auto it = pages.find(key);
  return it != pages.end() && it->second.io_in_progress;
}

void PageCache::Touch(const PageKey& key, PageState& state) {
  if (state.in_lru) {
    lru_.splice(lru_.begin(), lru_, state.lru_pos);
    return;
  }
  lru_.push_front(key);
  state.lru_pos = lru_.begin();
  state.in_lru = true;
}

void PageCache::StartRead(const PageKey& key, std::uint64_t lba) {
  PageState& state = StateOf(OSIM_SHARED_RW(pages_), key);
  if (state.valid || state.io_in_progress) {
    return;
  }
  state.io_in_progress = true;
  state.lba = lba;
  ++reads_started_;
  disk_->Submit(osim::DiskOp::kRead, lba, kBlocksPerPage,
                [this, key](const osim::DiskRequestInfo&) {
                  // Completion runs in kernel context (exempt at runtime);
                  // the access still routes through the cell for uniformity.
                  auto& pages = OSIM_SHARED_RW(pages_);
                  auto it = pages.find(key);
                  if (it == pages.end()) {
                    return;  // Dropped while in flight.
                  }
                  PageState& s = it->second;
                  s.io_in_progress = false;
                  s.valid = true;
                  Touch(key, s);
                  s.waiters.WakeAll();
                  EvictIfNeeded();
                });
}

Task<void> PageCache::WaitForPage(PageKey key) {
  while (true) {
    // Re-resolved each turn: the read is inside the loop so every
    // wakeup re-checks against the accessor's advanced clock.
    auto& pages = OSIM_SHARED_RW(pages_);
    auto it = pages.find(key);
    if (it != pages.end() && it->second.valid) {
      co_return;
    }
    if (it == pages.end()) {
      // Nobody started the read; nothing will ever wake us.
      throw std::logic_error("WaitForPage without StartRead");
    }
    co_await it->second.waiters.Wait();
  }
}

void PageCache::MarkValid(const PageKey& key, std::uint64_t lba) {
  PageState& state = StateOf(OSIM_SHARED_RW(pages_), key);
  state.valid = true;
  state.lba = lba;
  Touch(key, state);
  EvictIfNeeded();
}

void PageCache::MarkDirty(const PageKey& key, std::uint64_t lba) {
  PageState& state = StateOf(OSIM_SHARED_RW(pages_), key);
  if (!state.valid) {
    state.valid = true;  // Full-page overwrite semantics.
  }
  state.lba = lba;
  if (!state.dirty) {
    state.dirty = true;
    state.dirtied_at = kernel_->now();
  }
  Touch(key, state);
  EvictIfNeeded();
}

bool PageCache::IsDirty(const PageKey& key) const {
  const auto& pages = OSIM_SHARED_RO(pages_);
  auto it = pages.find(key);
  return it != pages.end() && it->second.dirty;
}

Task<void> PageCache::WriteBack(PageKey key) {
  auto& pages = OSIM_SHARED_RW(pages_);
  auto it = pages.find(key);
  if (it == pages.end() || !it->second.dirty) {
    co_return;
  }
  it->second.dirty = false;
  ++writebacks_;
  const std::uint64_t lba = it->second.lba;
  (void)co_await disk_->SyncWrite(lba, kBlocksPerPage);
}

int PageCache::FlushOlderThan(Cycles min_age) {
  const Cycles now = kernel_->now();
  int submitted = 0;
  for (auto& [key, state] : OSIM_SHARED_RW(pages_)) {
    if (state.dirty && now - state.dirtied_at >= min_age) {
      state.dirty = false;
      ++writebacks_;
      ++submitted;
      disk_->Submit(osim::DiskOp::kWrite, state.lba, kBlocksPerPage, nullptr);
    }
  }
  return submitted;
}

namespace {
Task<void> FlusherBody(Kernel* kernel, PageCache* cache, Cycles interval,
                       Cycles min_age) {
  while (true) {
    co_await kernel->Sleep(interval);
    co_await kernel->Cpu(2'000);  // Scan cost.
    cache->FlushOlderThan(min_age);
  }
}
}  // namespace

void PageCache::SpawnFlusher(Cycles interval, Cycles min_age) {
  kernel_->Spawn("bdflush", FlusherBody(kernel_, this, interval, min_age));
}

void PageCache::DropClean() {
  auto& pages = OSIM_SHARED_RW(pages_);
  for (auto it = pages.begin(); it != pages.end();) {
    PageState& state = it->second;
    if (state.valid && !state.dirty && !state.io_in_progress &&
        state.waiters.waiters() == 0) {
      if (state.in_lru) {
        lru_.erase(state.lru_pos);
      }
      it = pages.erase(it);
    } else {
      ++it;
    }
  }
}

void PageCache::DropCleanForInode(int inode) {
  auto& pages = OSIM_SHARED_RW(pages_);
  for (auto it = pages.begin(); it != pages.end();) {
    PageState& state = it->second;
    if (it->first.inode == inode && state.valid && !state.dirty &&
        !state.io_in_progress && state.waiters.waiters() == 0) {
      if (state.in_lru) {
        lru_.erase(state.lru_pos);
      }
      it = pages.erase(it);
    } else {
      ++it;
    }
  }
}

void PageCache::EvictIfNeeded() {
  // Internal: always reached through an access-checked public entry.
  auto& pages = pages_.Write(__func__);
  while (lru_.size() > capacity_pages_ && !lru_.empty()) {
    const PageKey victim = lru_.back();
    auto it = pages.find(victim);
    if (it == pages.end()) {
      lru_.pop_back();
      continue;
    }
    PageState& state = it->second;
    if (state.io_in_progress || state.waiters.waiters() > 0) {
      // Busy page: rotate it to the front and stop for now.
      Touch(victim, state);
      return;
    }
    if (state.dirty) {
      // Asynchronous writeback on eviction.
      ++writebacks_;
      disk_->Submit(osim::DiskOp::kWrite, state.lba, kBlocksPerPage, nullptr);
    }
    lru_.pop_back();
    pages.erase(it);
    ++evictions_;
  }
}

}  // namespace osfs
