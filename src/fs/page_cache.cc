#include "src/fs/page_cache.h"

#include <algorithm>
#include <stdexcept>

namespace osfs {

PageCache::PageState& PageCache::PageTable::FindOrCreate(const PageKey& key,
                                                         Kernel* kernel) {
  if (key.inode < 0) {
    throw std::out_of_range("PageCache: negative inode id");
  }
  const auto i = static_cast<std::size_t>(key.inode);
  if (i >= inodes_.size()) {
    inodes_.resize(i + 1);
  }
  auto& pages = inodes_[i];
  if (key.page >= pages.size()) {
    if (pages.empty()) {
      // Room for a small file's pages in the inode's first allocation.
      pages.reserve(std::max<std::uint64_t>(key.page + 1, 4));
    }
    pages.resize(key.page + 1);
  }
  std::unique_ptr<PageState>& slot = pages[key.page];
  if (slot == nullptr) {
    slot = std::make_unique<PageState>(kernel, key);
    ++size_;
  }
  return *slot;
}

void PageCache::PageTable::Erase(const PageKey& key) {
  if (Find(key) != nullptr) {
    inodes_[static_cast<std::size_t>(key.inode)][key.page].reset();
    --size_;
  }
}

PageCache::PageCache(Kernel* kernel, SimDisk* disk,
                     std::uint64_t capacity_pages)
    : kernel_(kernel),
      disk_(disk),
      capacity_pages_(capacity_pages),
      pages_(*kernel, "page_cache.pages") {}

bool PageCache::Contains(const PageKey& key) {
  auto& pages = OSIM_SHARED_RW(pages_);  // Refreshes LRU state.
  PageState* state = pages.Find(key);
  if (state != nullptr && state->valid) {
    ++hits_;
    Touch(*state);
    return true;
  }
  ++misses_;
  return false;
}

bool PageCache::IoInProgress(const PageKey& key) const {
  const PageState* state = OSIM_SHARED_RO(pages_).Find(key);
  return state != nullptr && state->io_in_progress;
}

void PageCache::Touch(PageState& state) {
  if (state.in_lru) {
    LruUnlink(state);
  }
  state.lru_newer = nullptr;
  state.lru_older = lru_front_;
  (lru_front_ != nullptr ? lru_front_->lru_newer : lru_back_) = &state;
  lru_front_ = &state;
  state.in_lru = true;
  ++lru_size_;
}

void PageCache::LruUnlink(PageState& state) {
  (state.lru_newer != nullptr ? state.lru_newer->lru_older : lru_front_) =
      state.lru_older;
  (state.lru_older != nullptr ? state.lru_older->lru_newer : lru_back_) =
      state.lru_newer;
  state.lru_newer = nullptr;
  state.lru_older = nullptr;
  state.in_lru = false;
  --lru_size_;
}

void PageCache::StartRead(const PageKey& key, std::uint64_t lba) {
  PageState& state = OSIM_SHARED_RW(pages_).FindOrCreate(key, kernel_);
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
                  PageState* s = OSIM_SHARED_RW(pages_).Find(key);
                  if (s == nullptr) {
                    return;  // Dropped while in flight.
                  }
                  s->io_in_progress = false;
                  s->valid = true;
                  Touch(*s);
                  s->waiters.WakeAll();
                  EvictIfNeeded();
                });
}

Task<void> PageCache::WaitForPage(PageKey key) {
  while (true) {
    // Re-resolved each turn: the read is inside the loop so every
    // wakeup re-checks against the accessor's advanced clock.
    PageState* state = OSIM_SHARED_RW(pages_).Find(key);
    if (state != nullptr && state->valid) {
      co_return;
    }
    if (state == nullptr) {
      // Nobody started the read; nothing will ever wake us.
      throw std::logic_error("WaitForPage without StartRead");
    }
    co_await state->waiters.Wait();
  }
}

void PageCache::MarkValid(const PageKey& key, std::uint64_t lba) {
  PageState& state = OSIM_SHARED_RW(pages_).FindOrCreate(key, kernel_);
  state.valid = true;
  state.lba = lba;
  Touch(state);
  EvictIfNeeded();
}

void PageCache::MarkDirty(const PageKey& key, std::uint64_t lba) {
  PageState& state = OSIM_SHARED_RW(pages_).FindOrCreate(key, kernel_);
  if (!state.valid) {
    state.valid = true;  // Full-page overwrite semantics.
  }
  state.lba = lba;
  if (!state.dirty) {
    state.dirty = true;
    state.dirtied_at = kernel_->now();
  }
  Touch(state);
  EvictIfNeeded();
}

bool PageCache::IsDirty(const PageKey& key) const {
  const PageState* state = OSIM_SHARED_RO(pages_).Find(key);
  return state != nullptr && state->dirty;
}

Task<void> PageCache::WriteBack(PageKey key) {
  PageState* state = OSIM_SHARED_RW(pages_).Find(key);
  if (state == nullptr || !state->dirty) {
    co_return;
  }
  state->dirty = false;
  ++writebacks_;
  const std::uint64_t lba = state->lba;
  (void)co_await disk_->SyncWrite(lba, kBlocksPerPage);
}

int PageCache::FlushOlderThan(Cycles min_age) {
  const Cycles now = kernel_->now();
  int submitted = 0;
  OSIM_SHARED_RW(pages_).ForEach([&](const PageKey&, PageState& state) {
    if (state.dirty && now - state.dirtied_at >= min_age) {
      state.dirty = false;
      ++writebacks_;
      ++submitted;
      disk_->Submit(osim::DiskOp::kWrite, state.lba, kBlocksPerPage, nullptr);
    }
  });
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
  pages.ForEach([&](const PageKey& key, PageState& state) {
    DropIfClean(pages, key, state);
  });
}

void PageCache::DropCleanForInode(int inode) {
  auto& pages = OSIM_SHARED_RW(pages_);
  pages.ForEachOfInode(inode, [&](const PageKey& key, PageState& state) {
    DropIfClean(pages, key, state);
  });
}

void PageCache::DropIfClean(PageTable& pages, const PageKey& key,
                            PageState& state) {
  if (state.valid && !state.dirty && !state.io_in_progress &&
      state.waiters.waiters() == 0) {
    if (state.in_lru) {
      LruUnlink(state);
    }
    pages.Erase(key);
  }
}

void PageCache::EvictIfNeeded() {
  // Internal: always reached through an access-checked public entry.
  auto& pages = pages_.Write(__func__);
  while (lru_size_ > capacity_pages_) {
    PageState& state = *lru_back_;
    if (state.io_in_progress || state.waiters.waiters() > 0) {
      // Busy page: rotate it to the front and stop for now.
      Touch(state);
      return;
    }
    if (state.dirty) {
      // Asynchronous writeback on eviction.
      ++writebacks_;
      disk_->Submit(osim::DiskOp::kWrite, state.lba, kBlocksPerPage, nullptr);
    }
    const PageKey victim = state.key;  // Erase destroys `state`.
    LruUnlink(state);
    pages.Erase(victim);
    ++evictions_;
  }
}

}  // namespace osfs
