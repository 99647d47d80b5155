// An Ext2-like simulated file system.
//
// Implements the exact code paths the paper's case studies profile:
//
//  * readdir: past-EOF fast path (Figure 7 first peak), page-cache hits
//    (second peak), and readpage + wait-for-page on misses (third/fourth
//    peaks, depending on the disk cache);
//  * readpage: asynchronous submission only, so its own profile stays
//    cheap while callers absorb the I/O wait (§6.2);
//  * generic_file_llseek semantics: configurable to take the shared inode
//    semaphore i_sem (the contention of §6.1) or the patched f_pos-only
//    update;
//  * O_DIRECT reads/writes that hold i_sem across the disk transfer, which
//    is what the llseek of a concurrent process collides with;
//  * buffered writes that return after dirtying the page cache (their disk
//    I/O is visible only at the driver layer).
//
// File-system images are built at "mkfs time" with AddDir/AddFile (no
// simulated cost), using a mostly-contiguous block allocator with a
// fragmentation knob, so grep-style scans produce the sequential/seek I/O
// mix of a real kernel source tree.
//
// Vfs times and names the ten operations; this file system implements
// their bodies and times only its internal operations (readpage, mmap,
// nopage, and JournalFs's write_super).

#ifndef OSPROF_SRC_FS_EXT2FS_H_
#define OSPROF_SRC_FS_EXT2FS_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/fs/fd_table.h"
#include "src/fs/page_cache.h"
#include "src/fs/vfs.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/race_tracker.h"
#include "src/sim/rng.h"
#include "src/sim/sync.h"

namespace osfs {

// Per-operation CPU costs in cycles, tuned so that the resulting profile
// peaks land in the paper's buckets at 1.7 GHz.
struct Ext2Costs {
  osim::Cycles lookup_per_component = 350;
  osim::Cycles open_base = 450;
  osim::Cycles close_base = 150;
  osim::Cycles readdir_eof = 90;       // Bucket 6 (Figure 7, first peak).
  osim::Cycles readdir_base = 500;
  osim::Cycles readdir_per_entry = 55;
  osim::Cycles readpage_base = 900;    // Submission only.
  osim::Cycles read_base = 350;
  osim::Cycles read_copy_per_page = 1400;
  osim::Cycles write_base = 400;
  osim::Cycles write_per_page = 1600;
  osim::Cycles llseek_body = 150;      // generic_file_llseek minus sem ops.
  osim::Cycles sem_op = 125;           // One down()/up() pair costs 2x this.
  osim::Cycles llseek_patched = 120;   // The §6.1 fix: 400 -> 120 cycles.
  osim::Cycles fsync_base = 500;
  osim::Cycles create_base = 2500;
  osim::Cycles unlink_base = 2000;
  osim::Cycles stat_base = 300;
};

struct Ext2Config {
  Ext2Costs costs;
  // Entries returned per readdir (getdents) call: the user buffer is
  // smaller than a directory page, so one page yields several calls --
  // the first cold, the rest page-cache hits (Figure 7's second peak).
  std::uint64_t entries_per_readdir = 16;
  // generic_file_llseek takes i_sem (the unpatched Linux 2.6.11 behaviour
  // of §6.1); false applies the paper's fix.
  bool llseek_takes_i_sem = true;
  // Page-cache capacity.
  std::uint64_t cache_pages = 200'000;
  // mkfs-time allocator: probability that a new file's extent jumps to a
  // random disk area instead of continuing after the previous one.
  double fragmentation = 0.03;
  // Blocks reserved per created (initially empty) file.
  std::uint64_t create_reserve_blocks = 64;
  // Multiplicative log-normal noise applied to CPU costs (sigma in log
  // space); gives profiles their natural width.
  double cpu_noise_sigma = 0.25;
};

inline constexpr std::uint64_t kDirentBytes = 64;

class Ext2SimFs : public Vfs {
 public:
  Ext2SimFs(osim::Kernel* kernel, osim::SimDisk* disk, Ext2Config config = {});

  // --- mkfs-time image construction (no simulated cost) -----------------
  // Paths are absolute, '/'-separated; parents must exist.
  int AddDir(const std::string& path);
  int AddFile(const std::string& path, std::uint64_t size_bytes);

  // --- Memory mapping (local file systems only) --------------------------
  // Maps the open file; returns a mapping id.  Profiled as "mmap".
  Task<int> Mmap(int fd) {
    return WrapIfAttached(profiler_, probes_.mmap, MmapImpl(fd));
  }
  // Simulates a load/store at `offset` within the mapping.  Accesses with
  // the PTE already present cost almost nothing and never enter the
  // kernel; otherwise the fault handler runs -- profiled as "nopage"
  // (the 2.6-era filemap_nopage): a minor fault maps a page already in
  // the page cache, a major fault goes to disk first.
  Task<void> MemAccess(int mapping, std::uint64_t offset);

  std::uint64_t minor_faults() const { return minor_faults_; }
  std::uint64_t major_faults() const { return major_faults_; }

  PageCache& page_cache() { return cache_; }
  const Ext2Config& config() const { return config_; }
  osim::Kernel* kernel() const { return kernel_; }

  // Introspection for tests and experiments.
  bool Exists(const std::string& path) const;
  std::uint64_t FileSize(const std::string& path) const;
  int open_files() const;

 protected:
  struct Inode {
    int id = 0;
    bool is_dir = false;
    std::uint64_t size = 0;  // Bytes; directories derive it from entries.
    std::uint64_t first_block = 0;
    std::uint64_t capacity_blocks = 0;
    std::map<std::string, int, std::less<>> entries;  // Dirs: name -> inode.
    std::vector<std::string> entry_order;             // Dirs: readdir order.
    std::unique_ptr<osim::SimSemaphore> i_sem;
    bool unlinked = false;
  };

  struct OpenFile {
    int inode = -1;
    std::uint64_t pos = 0;
    bool direct_io = false;
  };

  // The Vfs operation bodies.  Subclasses override ReadImpl (JournalFs
  // wraps reads in the super lock) and LlseekImpl.
  Task<int> OpenImpl(const std::string& path, bool direct_io) override;
  Task<void> CloseImpl(int fd) override;
  Task<std::int64_t> ReadImpl(int fd, std::uint64_t bytes) override;
  Task<std::int64_t> WriteImpl(int fd, std::uint64_t bytes) override;
  Task<std::uint64_t> LlseekImpl(int fd, std::uint64_t pos) override;
  // Reports Figure 8's readdir_past_EOF * 1024 through `past_eof_out`.
  Task<DirentBatch> ReaddirImpl(int fd, std::uint64_t* past_eof_out) override;
  Task<void> FsyncImpl(int fd) override;
  Task<int> CreateImpl(const std::string& path) override;
  Task<void> UnlinkImpl(const std::string& path) override;
  Task<FileAttr> StatImpl(const std::string& path) override;

  // The internal operations' probes: readpage, mmap, nopage and
  // JournalFs's write_super.  The profiler's call edges then capture
  // readdir/read -> readpage nesting (§3.1's function granularity).
  void ResolveProbes(SimProfiler& profiler) override;

  Task<std::int64_t> BufferedRead(OpenFile& file, Inode& inode,
                                  std::uint64_t bytes);
  Task<std::int64_t> DirectRead(OpenFile& file, Inode& inode,
                                std::uint64_t bytes);
  // The profiled internal readpage operation: submits the backing I/O.
  Task<void> ReadPage(int inode_id, std::uint64_t page_index) {
    return WrapIfAttached(profiler_, probes_.readpage,
                          ReadPageImpl(inode_id, page_index));
  }
  Task<void> ReadPageImpl(int inode_id, std::uint64_t page_index);

  Task<int> MmapImpl(int fd);
  Task<void> NopageImpl(int mapping, std::uint64_t page);

  // The internal operations' probes, resolved by ResolveProbes().
  struct OpProbes {
    osprof::ProbeHandle readpage, mmap, nopage, write_super;
  };

  // CPU burst with multiplicative log-normal noise.
  auto CpuNoisy(osim::Cycles cycles) {
    return kernel_->CpuNoisy(cycles, config_.cpu_noise_sigma);
  }

  int ResolvePath(std::string_view path) const;  // -1 if absent.
  // The parent directory's inode (-1 if absent) and the leaf name, a view
  // into `path`.
  std::pair<int, std::string_view> ResolveParent(std::string_view path) const;
  std::uint64_t DirSizeBytes(const Inode& inode) const {
    return inode.entry_order.size() * kDirentBytes;
  }
  std::uint64_t AllocateBlocks(std::uint64_t blocks);
  Inode& inode(int id) {
    return *OSIM_SHARED_RO(inodes_)[static_cast<std::size_t>(id)];
  }
  int NewInode(bool is_dir);

  struct MmapRegion {
    int inode = -1;
    std::set<std::uint64_t> present;  // Pages with a PTE installed.
    bool in_use = false;
  };

  osim::Kernel* kernel_;
  osim::SimDisk* disk_;
  Ext2Config config_;
  PageCache cache_;
  std::deque<MmapRegion> mappings_;
  std::uint64_t minor_faults_ = 0;
  std::uint64_t major_faults_ = 0;
  OpProbes probes_;
  // The inode table's protocol spans awaits (path resolution re-reads it
  // after I/O waits; create/unlink grow it), so it is a race-checked cell.
  osim::Shared<std::vector<std::unique_ptr<Inode>>> inodes_;
  FdTable<OpenFile> fds_;
  // Allocator cursor; create/write paths bump it across awaits.
  // Initialized to 64 to leave room for the "superblock" area.
  osim::Shared<std::uint64_t> next_alloc_;
  osim::Rng alloc_rng_;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_EXT2FS_H_
