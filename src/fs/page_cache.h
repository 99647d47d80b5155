// The page cache and its flushing daemon.
//
// Models the Linux 2.6 page cache semantics the paper's readdir analysis
// depends on (§6.2): a missing page is *initiated* by readpage (cheap,
// asynchronous submission -- its latency shows in the readpage profile)
// and the caller then sleeps until the I/O completes (that wait shows in
// the *caller's* profile, producing Figure 7's third and fourth peaks).
//
// Dirty pages age and are written back by a bdflush-style daemon
// (SpawnFlusher), which is what gives atime updates and write_super their
// periodic personality (§6.3).
//
// A hit allocates nothing, as in Linux: each page carries its own LRU
// links, moved to the front in place (list_move), and its own wait queue.
//
// The page table is keyed the way Linux keys a file's pages: each
// mapping (here, each inode) has its own page tree indexed by page
// number.  Here that tree is a table per inode, indexed by page number,
// so a lookup is two array indexings.  A walk visits pages in ascending
// (inode, page) order, the order writebacks are submitted in, and one
// inode's walk touches only that inode's table.

#ifndef OSPROF_SRC_FS_PAGE_CACHE_H_
#define OSPROF_SRC_FS_PAGE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/race_tracker.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace osfs {

using osim::Cycles;
using osim::Kernel;
using osim::SimDisk;
using osim::Task;

inline constexpr std::uint64_t kPageBytes = 4096;
inline constexpr std::uint64_t kBlockBytes = 512;
inline constexpr std::uint64_t kBlocksPerPage = kPageBytes / kBlockBytes;

// Identifies a page: (inode id, page index within the file).
struct PageKey {
  int inode = 0;
  std::uint64_t page = 0;
  auto operator<=>(const PageKey&) const = default;
};

class PageCache {
 public:
  PageCache(Kernel* kernel, SimDisk* disk, std::uint64_t capacity_pages);

  // True if the page is resident and valid (counts as a cache hit and
  // refreshes its LRU position).
  bool Contains(const PageKey& key);

  // True if a read for the page is already in flight.
  bool IoInProgress(const PageKey& key) const;

  // Submits the disk read backing `key` (8 blocks at `lba`) unless the
  // page is already valid or in flight.  Returns immediately -- this is
  // the asynchronous half of readpage.
  void StartRead(const PageKey& key, std::uint64_t lba);

  // Blocks the calling simulated thread until the page is valid.
  Task<void> WaitForPage(PageKey key);

  // Creates/validates a page without I/O (full-page overwrite).
  void MarkValid(const PageKey& key, std::uint64_t lba);

  // Marks a resident page dirty; the flusher or Fsync writes it back.
  void MarkDirty(const PageKey& key, std::uint64_t lba);
  bool IsDirty(const PageKey& key) const;

  // Writes one dirty page synchronously (fsync path); no-op if clean.
  Task<void> WriteBack(PageKey key);

  // Submits asynchronous writeback for every dirty page older than
  // `min_age`; returns how many were submitted.
  int FlushOlderThan(Cycles min_age);

  // Spawns the bdflush-style daemon: every `interval` cycles it writes
  // back dirty pages older than `min_age`.  The daemon runs forever; drive
  // such scenarios with Kernel::RunFor.
  void SpawnFlusher(Cycles interval, Cycles min_age);

  // Drops every clean page (and forgets LRU history).  Dirty and in-flight
  // pages survive.
  void DropClean();

  // Drops one inode's clean pages: cluster-coherence invalidation
  // (ClusterFs calls this when the DLM tells it another node wrote the
  // inode, so the next read refetches from the shared disk).
  void DropCleanForInode(int inode);

  // Statistics.
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t reads_started() const { return reads_started_; }
  std::uint64_t writebacks() const { return writebacks_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t resident_pages() const { return OSIM_SHARED_RO(pages_).size(); }

 private:
  // Allocated on its own and never moved, so the page holds its wait
  // queue by value and its LRU neighbours link to it directly.
  struct PageState {
    PageState(Kernel* kernel, const PageKey& key)
        : key(key), waiters(kernel, osprof::kLayerDriver) {}

    PageKey key;
    bool valid = false;
    bool dirty = false;
    bool io_in_progress = false;
    bool in_lru = false;
    std::uint64_t lba = 0;
    Cycles dirtied_at = 0;
    osim::WaitQueue waiters;
    // While in_lru: the next more and less recently used pages.
    PageState* lru_newer = nullptr;
    PageState* lru_older = nullptr;
  };

  // Per inode, a table of pages indexed by page number.
  class PageTable {
   public:
    // The page's state, or null when the page is not resident.
    PageState* Find(const PageKey& key) const {
      if (key.inode < 0 ||
          static_cast<std::size_t>(key.inode) >= inodes_.size()) {
        return nullptr;
      }
      const auto& pages = inodes_[static_cast<std::size_t>(key.inode)];
      return key.page < pages.size() ? pages[key.page].get() : nullptr;
    }
    // The page's state, created empty on first use.
    PageState& FindOrCreate(const PageKey& key, Kernel* kernel);
    // Drops a resident page's state.
    void Erase(const PageKey& key);
    // Calls f(key, state) on each resident page of `inode` in ascending
    // page order; f may erase the page it is given.
    template <typename F>
    void ForEachOfInode(int inode, F&& f) {
      if (inode < 0 || static_cast<std::size_t>(inode) >= inodes_.size()) {
        return;
      }
      const auto i = static_cast<std::size_t>(inode);
      for (std::uint64_t page = 0; page < inodes_[i].size(); ++page) {
        if (PageState* state = inodes_[i][page].get()) {
          f(PageKey{inode, page}, *state);
        }
      }
    }
    // The same over every inode, in ascending (inode, page) order.
    template <typename F>
    void ForEach(F&& f) {
      for (std::size_t i = 0; i < inodes_.size(); ++i) {
        ForEachOfInode(static_cast<int>(i), f);
      }
    }
    std::size_t size() const { return size_; }

   private:
    std::vector<std::vector<std::unique_ptr<PageState>>> inodes_;
    std::size_t size_ = 0;
  };

  // Moves the page to the LRU's front, adding it if it is not there.
  void Touch(PageState& state);
  void LruUnlink(PageState& state);
  // Drops `key` when it is clean and idle: valid, not dirty, no read in
  // flight, nobody waiting.
  void DropIfClean(PageTable& pages, const PageKey& key, PageState& state);
  void EvictIfNeeded();

  Kernel* kernel_;
  SimDisk* disk_;
  std::uint64_t capacity_pages_;
  // The page table's protocol spans awaits (StartRead submits, the caller
  // sleeps in WaitForPage, the completion validates), so it is a
  // race-checked cell.  The LRU and the counters below share its
  // protocol: every mutation goes through an access recorded on this cell.
  osim::Shared<PageTable> pages_;
  // The LRU, linked through the pages: front = most recently used.
  PageState* lru_front_ = nullptr;
  PageState* lru_back_ = nullptr;
  std::uint64_t lru_size_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t reads_started_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_PAGE_CACHE_H_
