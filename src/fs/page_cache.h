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
// A hit allocates nothing, as in Linux: the page's LRU node moves to the
// front in place (list_move), and each page carries its own wait queue.

#ifndef OSPROF_SRC_FS_PAGE_CACHE_H_
#define OSPROF_SRC_FS_PAGE_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>

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
  // Lives in the page table's map, whose nodes never move, so the
  // page's wait queue is held by value.
  struct PageState {
    explicit PageState(Kernel* kernel)
        : waiters(kernel, osprof::kLayerDriver) {}

    bool valid = false;
    bool dirty = false;
    bool io_in_progress = false;
    bool in_lru = false;
    std::uint64_t lba = 0;
    Cycles dirtied_at = 0;
    osim::WaitQueue waiters;
    std::list<PageKey>::iterator lru_pos;
  };

  // The page's state, created empty on first use.
  PageState& StateOf(std::map<PageKey, PageState>& pages,
                     const PageKey& key) {
    return pages.try_emplace(key, kernel_).first->second;
  }
  void Touch(const PageKey& key, PageState& state);
  void EvictIfNeeded();

  Kernel* kernel_;
  SimDisk* disk_;
  std::uint64_t capacity_pages_;
  // The page table's protocol spans awaits (StartRead submits, the caller
  // sleeps in WaitForPage, the completion validates), so it is a
  // race-checked cell.  lru_ and the counters below share its protocol:
  // every mutation goes through an access recorded on this cell.
  osim::Shared<std::map<PageKey, PageState>> pages_;
  std::list<PageKey> lru_;  // Front = most recently used.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t reads_started_ = 0;
  std::uint64_t writebacks_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_PAGE_CACHE_H_
