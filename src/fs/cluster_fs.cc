#include "src/fs/cluster_fs.h"

#include <algorithm>
#include <stdexcept>

namespace osfs {

namespace {

constexpr std::uint64_t kReaddirBatch = 32;
constexpr std::uint64_t kClusterDirentBytes = 64;

std::uint64_t PagesOf(std::uint64_t bytes) {
  return (bytes + kPageBytes - 1) / kPageBytes;
}

}  // namespace

// --- ClusterVolume ----------------------------------------------------------

ClusterVolume::ClusterVolume(osim::Kernel* kernel, osim::SimDisk* disk)
    : kernel_(kernel), disk_(disk) {
  NewInode(true);  // Root directory, inode 0.
}

int ClusterVolume::NewInode(bool is_dir) {
  const int id = static_cast<int>(inodes_.size());
  inodes_.emplace_back(*kernel_, "cluster.inode");
  OSIM_SHARED_RW(inodes_.back()).is_dir = is_dir;
  return id;
}

std::uint64_t ClusterVolume::AllocateBlocks(std::uint64_t blocks) {
  const std::uint64_t start = next_alloc_;
  next_alloc_ += blocks;
  return start;
}

int ClusterVolume::ResolvePath(std::string_view path) const {
  int cur = 0;
  for (std::string_view part : PathComponents(path)) {
    const ClusterInodeMeta& meta =
        OSIM_SHARED_RO(inodes_[static_cast<std::size_t>(cur)]);
    if (!meta.is_dir) {
      return -1;
    }
    const auto it = meta.entries.find(part);
    if (it == meta.entries.end()) {
      return -1;
    }
    cur = it->second.inode;
  }
  return cur;
}

int ClusterVolume::AddDir(const std::string& path) {
  const auto [parent_path, leaf] = SplitParent(path);
  if (leaf.empty()) {
    return 0;
  }
  const int parent = ResolvePath(parent_path);
  if (parent < 0) {
    throw std::invalid_argument("AddDir: no parent for " + path);
  }
  const int id = NewInode(true);
  ClusterInodeMeta& pm = OSIM_SHARED_RW(meta(parent));
  pm.entries[std::string(leaf)] = ClusterDirent{id, true};
  pm.entry_order.emplace_back(leaf);
  return id;
}

int ClusterVolume::AddFile(const std::string& path,
                           std::uint64_t size_bytes) {
  const auto [parent_path, leaf] = SplitParent(path);
  if (leaf.empty()) {
    throw std::invalid_argument("AddFile: empty path");
  }
  const int parent = ResolvePath(parent_path);
  if (parent < 0) {
    throw std::invalid_argument("AddFile: no parent for " + path);
  }
  const int id = NewInode(false);
  {
    ClusterInodeMeta& m = OSIM_SHARED_RW(meta(id));
    m.size = size_bytes;
    m.capacity_blocks =
        std::max(kBlocksPerPage, PagesOf(size_bytes) * kBlocksPerPage);
    m.first_block = AllocateBlocks(m.capacity_blocks);
  }
  ClusterInodeMeta& pm = OSIM_SHARED_RW(meta(parent));
  pm.entries[std::string(leaf)] = ClusterDirent{id, false};
  pm.entry_order.emplace_back(leaf);
  return id;
}

// --- ClusterFsNode ----------------------------------------------------------

ClusterFsNode::ClusterFsNode(ClusterVolume* volume, osnet::Dlm* dlm,
                             int node, ClusterFsConfig config)
    : kernel_(volume->kernel()),
      volume_(volume),
      dlm_(dlm),
      node_(node),
      config_(config),
      cache_(volume->kernel(), volume->disk(), config.cache_pages) {
  dlm_->SetDowngradeHook(
      node, [this](const std::string& resource) -> Task<void> {
        return FlushResource(resource);
      });
}

ClusterFsNode::LocalInode& ClusterFsNode::local(int inode) {
  while (static_cast<int>(locals_.size()) <= inode) {
    LocalInode li;
    li.i_sem = std::make_unique<osim::SimSemaphore>(
        kernel_, 1,
        "ci_sem:n" + std::to_string(node_) + ":" +
            std::to_string(locals_.size()));
    locals_.push_back(std::move(li));
  }
  return locals_[static_cast<std::size_t>(inode)];
}

void ClusterFsNode::Revalidate(int inode, LocalInode& li,
                               const ClusterInodeMeta& meta) {
  if (li.cached_generation != meta.generation) {
    cache_.DropCleanForInode(inode);
    li.cached_generation = meta.generation;
    ++invalidations_;
  }
}

Task<int> ClusterFsNode::ResolveLocked(std::string_view path) {
  ClusterDirent cur{0, true};  // The root.
  for (std::string_view part : PathComponents(path)) {
    if (!cur.is_dir) {
      // The parent's entry said file: ENOTDIR without locking the file.
      co_return -1;
    }
    const std::string res = InodeResource(cur.inode);
    co_await dlm_->Acquire(res, osnet::DlmMode::kProtectedRead);
    LocalInode& li = local(cur.inode);
    co_await li.i_sem->Acquire();
    ClusterDirent next;
    {
      const ClusterInodeMeta& meta =
          OSIM_SHARED_RO(volume_->meta(cur.inode));
      const auto it = meta.entries.find(part);
      if (it != meta.entries.end()) {
        next = it->second;
      }
    }
    li.i_sem->Release();
    dlm_->Release(res, osnet::DlmMode::kProtectedRead);
    if (next.inode < 0) {
      co_return -1;
    }
    cur = next;
  }
  co_return cur.inode;
}

Task<std::pair<int, std::string_view>> ClusterFsNode::ResolveParentLocked(
    std::string_view path) {
  const auto [parent_path, leaf] = SplitParent(path);
  if (leaf.empty()) {
    co_return std::pair<int, std::string_view>{-1, {}};
  }
  const int parent = co_await ResolveLocked(parent_path);
  co_return std::pair<int, std::string_view>{parent, leaf};
}

// --- Open / Close -----------------------------------------------------------

Task<int> ClusterFsNode::OpenImpl(const std::string& path, bool /*direct_io*/) {
  const std::size_t components = CountPathComponents(path);
  co_await CpuNoisy(config_.costs.open_base +
                    config_.costs.lookup_per_component * components);
  const int id = co_await ResolveLocked(path);
  if (id < 0) {
    co_return -1;
  }
  co_return fds_.Open(OpenFile{id, 0});
}

Task<void> ClusterFsNode::CloseImpl(int fd) {
  co_await CpuNoisy(config_.costs.close_base);
  fds_.Close(fd);
}

// --- Read -------------------------------------------------------------------

Task<std::int64_t> ClusterFsNode::ReadImpl(int fd, std::uint64_t bytes) {
  OpenFile& f = fds_.at(fd);
  co_await CpuNoisy(config_.costs.read_base);
  const std::string res = InodeResource(f.inode);
  co_await dlm_->Acquire(res, osnet::DlmMode::kProtectedRead);
  LocalInode& li = local(f.inode);
  co_await li.i_sem->Acquire();
  std::uint64_t size = 0;
  std::uint64_t first_block = 0;
  {
    const ClusterInodeMeta& meta = OSIM_SHARED_RO(volume_->meta(f.inode));
    Revalidate(f.inode, li, meta);
    size = meta.size;
    first_block = meta.first_block;
  }
  if (f.pos >= size) {
    li.i_sem->Release();
    dlm_->Release(res, osnet::DlmMode::kProtectedRead);
    co_return 0;
  }
  const std::uint64_t n = std::min(bytes, size - f.pos);
  const std::uint64_t first_page = f.pos / kPageBytes;
  const std::uint64_t last_page = (f.pos + n - 1) / kPageBytes;
  for (std::uint64_t page = first_page; page <= last_page; ++page) {
    const PageKey key{f.inode, page};
    if (!cache_.Contains(key)) {
      co_await ReadPage(f.inode, page, first_block);
      co_await cache_.WaitForPage(key);
    }
    co_await CpuNoisy(config_.costs.read_copy_per_page);
  }
  f.pos += n;
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kProtectedRead);
  co_return static_cast<std::int64_t>(n);
}

Task<void> ClusterFsNode::ReadPageImpl(int inode, std::uint64_t page,
                                       std::uint64_t first_block) {
  co_await CpuNoisy(config_.costs.readpage_base);
  cache_.StartRead(PageKey{inode, page}, first_block + page * kBlocksPerPage);
}

// --- Write ------------------------------------------------------------------

Task<std::int64_t> ClusterFsNode::WriteImpl(int fd, std::uint64_t bytes) {
  OpenFile& f = fds_.at(fd);
  co_await CpuNoisy(config_.costs.write_base);
  const std::string res = InodeResource(f.inode);
  co_await dlm_->Acquire(res, osnet::DlmMode::kExclusive);
  LocalInode& li = local(f.inode);
  co_await li.i_sem->Acquire();
  const std::uint64_t end = f.pos + bytes;
  std::uint64_t first_block = 0;
  {
    ClusterInodeMeta& meta = OSIM_SHARED_RW(volume_->meta(f.inode));
    Revalidate(f.inode, li, meta);
    const std::uint64_t needed = PagesOf(end) * kBlocksPerPage;
    if (needed > meta.capacity_blocks) {
      // Relocate to a fresh, larger extent (bump allocator: growth
      // abandons the old run, like the seed fs's whole-extent realloc).
      meta.capacity_blocks = std::max(needed, meta.capacity_blocks * 2);
      meta.first_block = volume_->AllocateBlocks(meta.capacity_blocks);
    }
    if (end > meta.size) {
      meta.size = end;
    }
    // Publish the write cluster-wide: peers drop their clean copies on
    // their next grant.
    ++meta.generation;
    li.cached_generation = meta.generation;
    first_block = meta.first_block;
  }
  const std::uint64_t first_page = f.pos / kPageBytes;
  const std::uint64_t last_page = (end - 1) / kPageBytes;
  for (std::uint64_t page = first_page; page <= last_page; ++page) {
    cache_.MarkDirty(PageKey{f.inode, page},
                     first_block + page * kBlocksPerPage);
    co_await CpuNoisy(config_.costs.write_per_page);
  }
  f.pos = end;
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kExclusive);
  co_return static_cast<std::int64_t>(bytes);
}

// --- Llseek / Readdir / Fsync ----------------------------------------------

Task<std::uint64_t> ClusterFsNode::LlseekImpl(int fd, std::uint64_t pos) {
  OpenFile& f = fds_.at(fd);
  co_await CpuNoisy(config_.costs.llseek_base);
  // generic_file_llseek discipline: the position update holds i_sem.
  LocalInode& li = local(f.inode);
  co_await li.i_sem->Acquire();
  f.pos = pos;
  li.i_sem->Release();
  co_return pos;
}

Task<DirentBatch> ClusterFsNode::ReaddirImpl(int fd,
                                             std::uint64_t* /*value*/) {
  OpenFile& f = fds_.at(fd);
  co_await CpuNoisy(config_.costs.readdir_base);
  const std::string res = InodeResource(f.inode);
  co_await dlm_->Acquire(res, osnet::DlmMode::kProtectedRead);
  LocalInode& li = local(f.inode);
  co_await li.i_sem->Acquire();
  DirentBatch batch;
  {
    const ClusterInodeMeta& meta = OSIM_SHARED_RO(volume_->meta(f.inode));
    const std::uint64_t total = meta.entry_order.size();
    if (f.pos >= total) {
      batch.at_end = true;
    } else {
      const std::uint64_t end = std::min(total, f.pos + kReaddirBatch);
      for (std::uint64_t i = f.pos; i < end; ++i) {
        batch.names.push_back(meta.entry_order[i]);
      }
      f.pos = end;
    }
  }
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kProtectedRead);
  co_return batch;
}

Task<void> ClusterFsNode::FsyncImpl(int fd) {
  OpenFile& f = fds_.at(fd);
  co_await CpuNoisy(config_.costs.fsync_base);
  // PR, not EX: dirty pages imply this node already holds a cached EX
  // grant, so the acquire is a local hit; if there is nothing dirty the
  // flush loop is empty anyway.
  const std::string res = InodeResource(f.inode);
  co_await dlm_->Acquire(res, osnet::DlmMode::kProtectedRead);
  LocalInode& li = local(f.inode);
  co_await li.i_sem->Acquire();
  std::uint64_t pages = 0;
  {
    const ClusterInodeMeta& meta = OSIM_SHARED_RO(volume_->meta(f.inode));
    pages = PagesOf(meta.size);
  }
  for (std::uint64_t page = 0; page < pages; ++page) {
    const PageKey key{f.inode, page};
    if (cache_.IsDirty(key)) {
      co_await cache_.WriteBack(key);
      ++pages_flushed_;
    }
  }
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kProtectedRead);
}

// --- Create / Unlink / Stat -------------------------------------------------

Task<int> ClusterFsNode::CreateImpl(const std::string& path) {
  const std::size_t components = CountPathComponents(path);
  co_await CpuNoisy(config_.costs.create_base +
                    config_.costs.lookup_per_component * components);
  const auto [parent, leaf] = co_await ResolveParentLocked(path);
  if (parent < 0 || leaf.empty()) {
    co_return -1;
  }
  const std::string res = InodeResource(parent);
  co_await dlm_->Acquire(res, osnet::DlmMode::kExclusive);
  LocalInode& li = local(parent);
  co_await li.i_sem->Acquire();
  int id = -1;
  {
    ClusterInodeMeta& pm = OSIM_SHARED_RW(volume_->meta(parent));
    const auto it = pm.entries.find(leaf);
    if (it != pm.entries.end()) {
      id = it->second.inode;
    } else {
      id = volume_->NewInode(false);
      {
        ClusterInodeMeta& m = OSIM_SHARED_RW(volume_->meta(id));
        m.capacity_blocks = kBlocksPerPage;
        m.first_block = volume_->AllocateBlocks(m.capacity_blocks);
      }
      pm.entries.emplace(leaf, ClusterDirent{id, false});
      pm.entry_order.emplace_back(leaf);
      ++pm.generation;
    }
  }
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kExclusive);
  co_return fds_.Open(OpenFile{id, 0});
}

Task<void> ClusterFsNode::UnlinkImpl(const std::string& path) {
  const std::size_t components = CountPathComponents(path);
  co_await CpuNoisy(config_.costs.unlink_base +
                    config_.costs.lookup_per_component * components);
  const auto [parent, leaf] = co_await ResolveParentLocked(path);
  if (parent < 0 || leaf.empty()) {
    co_return;
  }
  const std::string res = InodeResource(parent);
  co_await dlm_->Acquire(res, osnet::DlmMode::kExclusive);
  LocalInode& li = local(parent);
  co_await li.i_sem->Acquire();
  {
    ClusterInodeMeta& pm = OSIM_SHARED_RW(volume_->meta(parent));
    const auto it = pm.entries.find(leaf);
    if (it != pm.entries.end()) {
      const int id = it->second.inode;
      pm.entries.erase(it);
      pm.entry_order.erase(std::find(pm.entry_order.begin(),
                                     pm.entry_order.end(), leaf));
      ++pm.generation;
      OSIM_SHARED_RW(volume_->meta(id)).unlinked = true;
    }
  }
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kExclusive);
}

Task<FileAttr> ClusterFsNode::StatImpl(const std::string& path) {
  const std::size_t components = CountPathComponents(path);
  co_await CpuNoisy(config_.costs.stat_base +
                    config_.costs.lookup_per_component * components);
  const int id = co_await ResolveLocked(path);
  FileAttr attr;
  if (id < 0) {
    co_return attr;
  }
  const std::string res = InodeResource(id);
  co_await dlm_->Acquire(res, osnet::DlmMode::kProtectedRead);
  LocalInode& li = local(id);
  co_await li.i_sem->Acquire();
  {
    const ClusterInodeMeta& meta = OSIM_SHARED_RO(volume_->meta(id));
    attr.is_dir = meta.is_dir;
    attr.size = meta.is_dir
                    ? meta.entry_order.size() * kClusterDirentBytes
                    : meta.size;
  }
  li.i_sem->Release();
  dlm_->Release(res, osnet::DlmMode::kProtectedRead);
  co_return attr;
}

// --- The DLM downgrade hook -------------------------------------------------

Task<void> ClusterFsNode::FlushResource(const std::string& resource) {
  constexpr const char kPrefix[] = "inode:";
  if (resource.rfind(kPrefix, 0) != 0) {
    co_return;
  }
  const int inode = std::stoi(resource.substr(sizeof(kPrefix) - 1));
  // Runs in the node's DLM daemon; i_sem orders the flush against local
  // clients still finishing an operation under the cached grant.
  LocalInode& li = local(inode);
  co_await li.i_sem->Acquire();
  std::uint64_t pages = 0;
  {
    const ClusterInodeMeta& meta = OSIM_SHARED_RO(volume_->meta(inode));
    pages = PagesOf(meta.size);
  }
  for (std::uint64_t page = 0; page < pages; ++page) {
    const PageKey key{inode, page};
    if (cache_.IsDirty(key)) {
      co_await cache_.WriteBack(key);
      ++pages_flushed_;
    }
  }
  li.i_sem->Release();
}

}  // namespace osfs
