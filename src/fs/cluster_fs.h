// An OCFS2-style shared-disk cluster file system.
//
// One ClusterVolume (the shared disk plus the on-disk inode table) is
// mounted by N ClusterFsNode instances, one per osim::Node.  Every node
// has its *own* page cache and inode semaphores -- caching is local --
// but the metadata is cluster-wide, so each operation first takes the
// inode's DLM lock (src/net/dlm.h): protected-read for read/stat/readdir,
// exclusive for write/create/unlink.  The DLM keeps grants cached
// per-node, so a node re-reading its own file pays nothing; the moment
// another node writes, the grant ping-pongs -- BAST, dirty-page flush,
// regrant -- and the waiting client's profile shows the stall split
// between kLayerNet (wire round trip to the lock master) and
// kLayerLockWait (queued behind the peer's revoke), which is the layered
// decomposition's hardest attribution case (ROADMAP item 4).
//
// Coherence protocol: a writer under EX bumps the inode's generation
// number; every node remembers the generation its cached pages belong
// to and, on the first lock grant after a foreign write, drops the
// inode's clean pages (the peer's pre-grant flush guarantees the shared
// disk is current by then).  Lock order is DLM lock first, then the
// local i_sem -- never the reverse, since holding i_sem across a DLM
// wait would deadlock against the revoke path, which takes i_sem to
// flush.

#ifndef OSPROF_SRC_FS_CLUSTER_FS_H_
#define OSPROF_SRC_FS_CLUSTER_FS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/fs/fd_table.h"
#include "src/fs/page_cache.h"
#include "src/fs/vfs.h"
#include "src/net/dlm.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"
#include "src/sim/race_tracker.h"
#include "src/sim/sync.h"

namespace osfs {

struct ClusterCosts {
  osim::Cycles open_base = 520;
  osim::Cycles lookup_per_component = 350;
  osim::Cycles close_base = 150;
  osim::Cycles read_base = 380;
  osim::Cycles read_copy_per_page = 1'400;
  osim::Cycles readpage_base = 600;
  osim::Cycles write_base = 430;
  osim::Cycles write_per_page = 1'600;
  osim::Cycles llseek_base = 200;
  osim::Cycles fsync_base = 500;
  osim::Cycles stat_base = 320;
  osim::Cycles readdir_base = 450;
  osim::Cycles create_base = 2'600;
  osim::Cycles unlink_base = 1'400;
};

struct ClusterFsConfig {
  ClusterCosts costs;
  std::uint64_t cache_pages = 4'096;  // Per node.
  double cpu_noise_sigma = 0.25;
};

// A directory entry: the inode it names and, as a dirent's d_type does,
// whether that inode is a directory, so a path walk can stop at a file
// without locking it.
struct ClusterDirent {
  int inode = -1;
  bool is_dir = false;
};

// Cluster-wide inode state, one Shared cell per inode: written only
// under the inode's EX DLM lock (plus the writer's local i_sem), read
// under at least PR, so the DLM grant chain is exactly the
// happens-before order SimRace checks.
struct ClusterInodeMeta {
  bool is_dir = false;
  bool unlinked = false;
  std::uint64_t size = 0;  // Bytes; directories derive it from entries.
  std::uint64_t first_block = 0;
  std::uint64_t capacity_blocks = 0;
  // Bumped by every metadata/data write; nodes compare it against the
  // generation their cached pages were read under.
  std::uint64_t generation = 0;
  std::map<std::string, ClusterDirent, std::less<>> entries;  // Dirs: by name.
  std::vector<std::string> entry_order;  // Dirs: readdir order.
};

// The shared disk and the on-disk inode table.  Built host-side (mkfs)
// before the workload runs; at run time all access goes through the
// mounting ClusterFsNode instances.
class ClusterVolume {
 public:
  ClusterVolume(osim::Kernel* kernel, osim::SimDisk* disk);

  // mkfs: parents must exist.  Returns the inode id.
  int AddDir(const std::string& path);
  int AddFile(const std::string& path, std::uint64_t size_bytes);

  // Unlocked path walk (host side / already-locked contexts); -1 if
  // absent.
  int ResolvePath(std::string_view path) const;

  int NewInode(bool is_dir);
  std::uint64_t AllocateBlocks(std::uint64_t blocks);

  osim::Shared<ClusterInodeMeta>& meta(int id) {
    return inodes_[static_cast<std::size_t>(id)];
  }
  const osim::Shared<ClusterInodeMeta>& meta(int id) const {
    return inodes_[static_cast<std::size_t>(id)];
  }
  int num_inodes() const { return static_cast<int>(inodes_.size()); }
  osim::SimDisk* disk() const { return disk_; }
  osim::Kernel* kernel() const { return kernel_; }

 private:
  osim::Kernel* kernel_;
  osim::SimDisk* disk_;
  // Deque: references must survive growth (create during suspension).
  std::deque<osim::Shared<ClusterInodeMeta>> inodes_;
  // Bump allocator; every claim is single-turn-atomic (no await between
  // read and advance), so like the fd tables this is deliberately not a
  // Shared cell.
  std::uint64_t next_alloc_ = 64;
};

// One node's mount of a ClusterVolume.
class ClusterFsNode : public Vfs {
 public:
  // Registers this node's downgrade hook with the DLM (flush the
  // inode's dirty pages before surrendering EX).
  ClusterFsNode(ClusterVolume* volume, osnet::Dlm* dlm, int node,
                ClusterFsConfig config = {});

  PageCache& page_cache() { return cache_; }
  int node() const { return node_; }
  std::uint64_t invalidations() const { return invalidations_; }
  std::uint64_t pages_flushed() const { return pages_flushed_; }

 private:
  struct OpenFile {
    int inode = -1;
    std::uint64_t pos = 0;
  };

  // Per-node, per-inode local state.  cached_generation is only touched
  // under the inode's i_sem (and the DLM lock), so it needs no cell of
  // its own.
  struct LocalInode {
    std::unique_ptr<osim::SimSemaphore> i_sem;
    std::uint64_t cached_generation = 0;
  };

  Task<int> OpenImpl(const std::string& path, bool direct_io) override;
  Task<void> CloseImpl(int fd) override;
  Task<std::int64_t> ReadImpl(int fd, std::uint64_t bytes) override;
  Task<std::int64_t> WriteImpl(int fd, std::uint64_t bytes) override;
  Task<std::uint64_t> LlseekImpl(int fd, std::uint64_t pos) override;
  Task<DirentBatch> ReaddirImpl(int fd, std::uint64_t* value) override;
  Task<void> FsyncImpl(int fd) override;
  Task<int> CreateImpl(const std::string& path) override;
  Task<void> UnlinkImpl(const std::string& path) override;
  Task<FileAttr> StatImpl(const std::string& path) override;
  void ResolveProbes(SimProfiler& profiler) override {
    readpage_ = profiler.Resolve("readpage");
  }

  Task<void> ReadPage(int inode, std::uint64_t page,
                      std::uint64_t first_block) {
    return WrapIfAttached(profiler_, readpage_,
                          ReadPageImpl(inode, page, first_block));
  }
  Task<void> ReadPageImpl(int inode, std::uint64_t page,
                          std::uint64_t first_block);

  // Walks `path` component by component, taking each directory's DLM PR
  // lock and local i_sem around the entry lookup.  Returns -1 if absent,
  // or if a file is used as a directory, before locking the file.
  // `path` must outlive the walk, which spans awaits.
  Task<int> ResolveLocked(std::string_view path);
  // Like ResolveLocked but stops at the parent; returns {parent, leaf},
  // the leaf a view into `path`.  The parent is -1 if absent, and the
  // result {-1, ""} if `path` has no components.
  Task<std::pair<int, std::string_view>> ResolveParentLocked(
      std::string_view path);

  // Under the inode's DLM lock + i_sem: drop stale clean pages if a
  // foreign write bumped the generation since this node last looked.
  void Revalidate(int inode, LocalInode& li,
                  const ClusterInodeMeta& meta);

  // The DLM downgrade hook: write back the inode's dirty pages.
  Task<void> FlushResource(const std::string& resource);

  // CPU burst with multiplicative log-normal noise.
  auto CpuNoisy(osim::Cycles cycles) {
    return kernel_->CpuNoisy(cycles, config_.cpu_noise_sigma);
  }
  LocalInode& local(int inode);
  static std::string InodeResource(int inode) {
    return "inode:" + std::to_string(inode);
  }

  osim::Kernel* kernel_;
  ClusterVolume* volume_;
  osnet::Dlm* dlm_;
  int node_;
  ClusterFsConfig config_;
  PageCache cache_;
  osprof::ProbeHandle readpage_;
  FdTable<OpenFile> fds_;
  // Deque for reference stability across awaits.
  std::deque<LocalInode> locals_;
  std::uint64_t invalidations_ = 0;
  std::uint64_t pages_flushed_ = 0;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_CLUSTER_FS_H_
