#include "src/fs/ext2fs.h"

#include <algorithm>
#include <stdexcept>

namespace osfs {

Ext2SimFs::Ext2SimFs(osim::Kernel* kernel, osim::SimDisk* disk,
                     Ext2Config config)
    : kernel_(kernel),
      disk_(disk),
      config_(config),
      cache_(kernel, disk, config.cache_pages),
      inodes_(*kernel, "ext2.inodes"),
      next_alloc_(*kernel, "ext2.next_alloc", 64),
      alloc_rng_(kernel->rng().Split()) {
  NewInode(/*is_dir=*/true);  // Root directory, inode 0.
}

void Ext2SimFs::ResolveProbes(SimProfiler& profiler) {
  probes_ = {profiler.Resolve("readpage"), profiler.Resolve("mmap"),
             profiler.Resolve("nopage"), profiler.Resolve("write_super")};
}

int Ext2SimFs::NewInode(bool is_dir) {
  auto& table = OSIM_SHARED_RW(inodes_);
  const int id = static_cast<int>(table.size());
  auto node = std::make_unique<Inode>();
  node->id = id;
  node->is_dir = is_dir;
  node->i_sem = std::make_unique<osim::SimSemaphore>(
      kernel_, 1, "i_sem:" + std::to_string(id));
  if (is_dir) {
    node->first_block = AllocateBlocks(kBlocksPerPage * 8);
    node->capacity_blocks = kBlocksPerPage * 8;
  }
  table.push_back(std::move(node));
  return id;
}

std::uint64_t Ext2SimFs::AllocateBlocks(std::uint64_t blocks) {
  std::uint64_t& next = OSIM_SHARED_RW(next_alloc_);
  const std::uint64_t device = disk_->config().num_blocks;
  if (config_.fragmentation > 0.0 &&
      alloc_rng_.Chance(config_.fragmentation)) {
    // Jump to a random track start, leaving headroom at the disk's end.
    const std::uint64_t per_track = disk_->config().blocks_per_track;
    const std::uint64_t tracks = (device - blocks) / per_track;
    next = alloc_rng_.Below(tracks) * per_track;
  }
  if (next + blocks >= device) {
    next = 64;
  }
  const std::uint64_t start = next;
  next += blocks;
  return start;
}

int Ext2SimFs::ResolvePath(std::string_view path) const {
  const auto& table = OSIM_SHARED_RO(inodes_);
  int id = 0;  // Root.
  for (std::string_view part : PathComponents(path)) {
    const Inode& node = *table[static_cast<std::size_t>(id)];
    if (!node.is_dir) {
      return -1;
    }
    auto it = node.entries.find(part);
    if (it == node.entries.end()) {
      return -1;
    }
    id = it->second;
  }
  return id;
}

std::pair<int, std::string_view> Ext2SimFs::ResolveParent(
    std::string_view path) const {
  const auto [parent_path, leaf] = SplitParent(path);
  if (leaf.empty()) {
    return {-1, {}};
  }
  const auto& table = OSIM_SHARED_RO(inodes_);
  int id = 0;
  for (std::string_view part : PathComponents(parent_path)) {
    const Inode& node = *table[static_cast<std::size_t>(id)];
    auto it = node.entries.find(part);
    if (it == node.entries.end() ||
        !table[static_cast<std::size_t>(it->second)]->is_dir) {
      return {-1, {}};
    }
    id = it->second;
  }
  return {id, leaf};
}

int Ext2SimFs::AddDir(const std::string& path) {
  const auto [parent, name] = ResolveParent(path);
  if (parent < 0) {
    throw std::invalid_argument("AddDir: missing parent for " + path);
  }
  Inode& p = inode(parent);
  if (p.entries.count(name) != 0) {
    throw std::invalid_argument("AddDir: exists: " + path);
  }
  const int id = NewInode(/*is_dir=*/true);
  p.entries.emplace(name, id);
  p.entry_order.emplace_back(name);
  return id;
}

int Ext2SimFs::AddFile(const std::string& path, std::uint64_t size_bytes) {
  const auto [parent, name] = ResolveParent(path);
  if (parent < 0) {
    throw std::invalid_argument("AddFile: missing parent for " + path);
  }
  Inode& p = inode(parent);
  if (p.entries.count(name) != 0) {
    throw std::invalid_argument("AddFile: exists: " + path);
  }
  const int id = NewInode(/*is_dir=*/false);
  Inode& node = inode(id);
  node.size = size_bytes;
  const std::uint64_t blocks = std::max<std::uint64_t>(
      kBlocksPerPage, (size_bytes + kBlockBytes - 1) / kBlockBytes);
  node.first_block = AllocateBlocks(blocks);
  node.capacity_blocks = blocks;
  p.entries.emplace(name, id);
  p.entry_order.emplace_back(name);
  return id;
}

int Ext2SimFs::open_files() const { return fds_.open_count(); }

bool Ext2SimFs::Exists(const std::string& path) const {
  return ResolvePath(path) >= 0;
}

std::uint64_t Ext2SimFs::FileSize(const std::string& path) const {
  const int id = ResolvePath(path);
  if (id < 0) {
    throw std::invalid_argument("FileSize: no such path: " + path);
  }
  const Inode& node = *OSIM_SHARED_RO(inodes_)[static_cast<std::size_t>(id)];
  return node.is_dir ? DirSizeBytes(node) : node.size;
}

// --- Open / Close -----------------------------------------------------------

Task<int> Ext2SimFs::OpenImpl(const std::string& path, bool direct_io) {
  const std::size_t components = CountPathComponents(path);
  co_await CpuNoisy(config_.costs.open_base +
                    config_.costs.lookup_per_component * components);
  const int id = ResolvePath(path);
  if (id < 0) {
    co_return -1;
  }
  co_return fds_.Open(OpenFile{id, 0, direct_io});
}

Task<void> Ext2SimFs::CloseImpl(int fd) {
  co_await CpuNoisy(config_.costs.close_base);
  fds_.Close(fd);
}

// --- Read -------------------------------------------------------------------

Task<std::int64_t> Ext2SimFs::ReadImpl(int fd, std::uint64_t bytes) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  if (node.is_dir) {
    co_return -1;
  }
  if (f.direct_io) {
    co_return co_await DirectRead(f, node, bytes);
  }
  co_return co_await BufferedRead(f, node, bytes);
}

Task<std::int64_t> Ext2SimFs::BufferedRead(OpenFile& f, Inode& node,
                                           std::uint64_t bytes) {
  co_await CpuNoisy(config_.costs.read_base);
  if (f.pos >= node.size || bytes == 0) {
    co_return 0;  // Zero-byte read / EOF: the Figure 3 fast path.
  }
  const std::uint64_t end = std::min(node.size, f.pos + bytes);
  const std::uint64_t first_page = f.pos / kPageBytes;
  const std::uint64_t last_page = (end - 1) / kPageBytes;
  for (std::uint64_t page = first_page; page <= last_page; ++page) {
    const PageKey key{node.id, page};
    if (!cache_.Contains(key)) {
      co_await ReadPage(node.id, page);
      co_await cache_.WaitForPage(key);
    }
    co_await CpuNoisy(config_.costs.read_copy_per_page);
  }
  const std::int64_t read = static_cast<std::int64_t>(end - f.pos);
  f.pos = end;
  co_return read;
}

Task<std::int64_t> Ext2SimFs::DirectRead(OpenFile& f, Inode& node,
                                         std::uint64_t bytes) {
  co_await CpuNoisy(config_.costs.read_base);
  if (f.pos >= node.size || bytes == 0) {
    co_return 0;
  }
  const std::uint64_t end = std::min(node.size, f.pos + bytes);
  const std::uint64_t first_block = node.first_block + f.pos / kBlockBytes;
  const std::uint64_t block_count = std::max<std::uint64_t>(
      1, (end - f.pos + kBlockBytes - 1) / kBlockBytes);
  // Linux 2.6.11 O_DIRECT holds i_sem across the transfer -- the very hold
  // the llseek of §6.1 collides with.
  co_await kernel_->Cpu(config_.costs.sem_op);
  co_await node.i_sem->Acquire();
  (void)co_await disk_->SyncRead(first_block, block_count);
  co_await kernel_->Cpu(config_.costs.sem_op);
  node.i_sem->Release();
  const std::int64_t read = static_cast<std::int64_t>(end - f.pos);
  f.pos = end;
  co_return read;
}

Task<void> Ext2SimFs::ReadPageImpl(int inode_id, std::uint64_t page_index) {
  // Submission only: allocate the page, build the bio, queue it.  The
  // caller waits for completion separately, so this profile stays cheap
  // (Figure 7, bottom).
  Inode& node = inode(inode_id);
  co_await CpuNoisy(config_.costs.readpage_base);
  const std::uint64_t lba = node.first_block + page_index * kBlocksPerPage;
  cache_.StartRead(PageKey{inode_id, page_index}, lba);
}

// --- Write / Fsync ----------------------------------------------------------

Task<std::int64_t> Ext2SimFs::WriteImpl(int fd, std::uint64_t bytes) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  if (node.is_dir || bytes == 0) {
    co_return node.is_dir ? -1 : 0;
  }
  co_await CpuNoisy(config_.costs.write_base);
  const std::uint64_t end = f.pos + bytes;
  // Grow the extent if the write outruns it (fresh contiguous extent; the
  // simulation has no data to copy).
  const std::uint64_t needed_blocks = (end + kBlockBytes - 1) / kBlockBytes;
  if (needed_blocks > node.capacity_blocks) {
    node.capacity_blocks = std::max(needed_blocks * 2,
                                    config_.create_reserve_blocks);
    node.first_block = AllocateBlocks(node.capacity_blocks);
  }
  if (f.direct_io) {
    const std::uint64_t first_block = node.first_block + f.pos / kBlockBytes;
    co_await kernel_->Cpu(config_.costs.sem_op);
    co_await node.i_sem->Acquire();
    (void)co_await disk_->SyncWrite(
        first_block, (bytes + kBlockBytes - 1) / kBlockBytes);
    co_await kernel_->Cpu(config_.costs.sem_op);
    node.i_sem->Release();
  } else {
    const std::uint64_t first_page = f.pos / kPageBytes;
    const std::uint64_t last_page = (end - 1) / kPageBytes;
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      cache_.MarkDirty(PageKey{node.id, page},
                       node.first_block + page * kBlocksPerPage);
      co_await CpuNoisy(config_.costs.write_per_page);
    }
  }
  node.size = std::max(node.size, end);
  f.pos = end;
  co_return static_cast<std::int64_t>(bytes);
}

Task<void> Ext2SimFs::FsyncImpl(int fd) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  co_await CpuNoisy(config_.costs.fsync_base);
  const std::uint64_t pages = (node.size + kPageBytes - 1) / kPageBytes;
  for (std::uint64_t page = 0; page < pages; ++page) {
    const PageKey key{node.id, page};
    if (cache_.IsDirty(key)) {
      co_await cache_.WriteBack(key);
    }
  }
}

// --- Llseek (§6.1) ----------------------------------------------------------

Task<std::uint64_t> Ext2SimFs::LlseekImpl(int fd, std::uint64_t pos) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  if (config_.llseek_takes_i_sem) {
    // generic_file_llseek: i_sem protects the f_pos update even though the
    // file position is per-open-file -- the paper's discovered pathology.
    co_await kernel_->Cpu(config_.costs.sem_op);
    co_await node.i_sem->Acquire();
    co_await CpuNoisy(config_.costs.llseek_body);
    f.pos = pos;
    co_await kernel_->Cpu(config_.costs.sem_op);
    node.i_sem->Release();
  } else {
    // The patched llseek: plain f_pos update.
    co_await CpuNoisy(config_.costs.llseek_patched);
    f.pos = pos;
  }
  co_return f.pos;
}

// --- Readdir (§6.2) ---------------------------------------------------------

Task<DirentBatch> Ext2SimFs::ReaddirImpl(int fd,
                                         std::uint64_t* past_eof_out) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  DirentBatch batch;
  if (!node.is_dir) {
    batch.at_end = true;
    co_return batch;
  }
  const std::uint64_t dir_bytes = DirSizeBytes(node);
  if (f.pos >= dir_bytes) {
    // Past EOF: return immediately -- the first peak of Figure 7.
    *past_eof_out = 1024;
    co_await kernel_->Cpu(config_.costs.readdir_eof);
    batch.at_end = true;
    co_return batch;
  }
  *past_eof_out = 0;
  const std::uint64_t page = f.pos / kPageBytes;
  const PageKey key{node.id, page};
  if (!cache_.Contains(key)) {
    // Miss: initiate the I/O via readpage, then sleep on the page.
    co_await ReadPage(node.id, page);
    co_await cache_.WaitForPage(key);
  }
  // One getdents buffer worth of entries, bounded by the page: the next
  // call over the same page is a pure cache hit.
  const std::uint64_t first_entry = f.pos / kDirentBytes;
  const std::uint64_t page_last_entry = (page + 1) * (kPageBytes / kDirentBytes);
  const std::uint64_t entries_in_dir = node.entry_order.size();
  const std::uint64_t last_entry =
      std::min({entries_in_dir, page_last_entry,
                first_entry + config_.entries_per_readdir});
  const std::uint64_t count = last_entry - first_entry;
  co_await CpuNoisy(config_.costs.readdir_base +
                    config_.costs.readdir_per_entry * count);
  for (std::uint64_t i = first_entry; i < last_entry; ++i) {
    batch.names.push_back(node.entry_order[i]);
  }
  f.pos = std::min(dir_bytes, last_entry * kDirentBytes);
  batch.at_end = f.pos >= dir_bytes;
  co_return batch;
}

// --- Memory mapping -----------------------------------------------------------

Task<int> Ext2SimFs::MmapImpl(int fd) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  if (node.is_dir) {
    co_return -1;
  }
  // Build the vma: no pages are populated (demand paging).
  co_await CpuNoisy(1'200);
  for (std::size_t i = 0; i < mappings_.size(); ++i) {
    if (!mappings_[i].in_use) {
      mappings_[i] = MmapRegion{};
      mappings_[i].inode = f.inode;
      mappings_[i].in_use = true;
      co_return static_cast<int>(i);
    }
  }
  mappings_.emplace_back();
  mappings_.back().inode = f.inode;
  mappings_.back().in_use = true;
  co_return static_cast<int>(mappings_.size() - 1);
}

Task<void> Ext2SimFs::MemAccess(int mapping, std::uint64_t offset) {
  if (mapping < 0 || static_cast<std::size_t>(mapping) >= mappings_.size() ||
      !mappings_[static_cast<std::size_t>(mapping)].in_use) {
    throw std::invalid_argument("bad mapping id");
  }
  MmapRegion& region = mappings_[static_cast<std::size_t>(mapping)];
  const std::uint64_t page = offset / kPageBytes;
  if (region.present.count(page) != 0) {
    // PTE present: a plain memory access, no kernel entry.
    co_await kernel_->CpuUser(4);
    co_return;
  }
  co_await WrapIfAttached(profiler_, probes_.nopage, NopageImpl(mapping, page));
}

Task<void> Ext2SimFs::NopageImpl(int mapping, std::uint64_t page) {
  // The filemap_nopage path: find or fault in the page, install the PTE.
  MmapRegion& region = mappings_[static_cast<std::size_t>(mapping)];
  Inode& node = inode(region.inode);
  const PageKey key{node.id, page};
  if (cache_.Contains(key)) {
    ++minor_faults_;
    co_await CpuNoisy(1'500);  // Minor fault: map the cached page.
  } else {
    ++major_faults_;
    co_await CpuNoisy(2'500);  // Fault setup before the I/O.
    co_await ReadPage(node.id, page);
    co_await cache_.WaitForPage(key);
  }
  region.present.insert(page);
}

// --- Namespace operations ---------------------------------------------------

Task<int> Ext2SimFs::CreateImpl(const std::string& path) {
  co_await CpuNoisy(config_.costs.create_base);
  const auto [parent, name] = ResolveParent(path);
  if (parent < 0 || name.empty()) {
    co_return -1;
  }
  Inode& p = inode(parent);
  if (p.entries.count(name) != 0) {
    co_return -1;
  }
  const int id = NewInode(/*is_dir=*/false);
  Inode& node = inode(id);
  node.capacity_blocks = config_.create_reserve_blocks;
  node.first_block = AllocateBlocks(node.capacity_blocks);
  p.entries.emplace(name, id);
  p.entry_order.emplace_back(name);
  // Dirty the directory page holding the new entry.
  const std::uint64_t entry_page =
      (p.entry_order.size() - 1) * kDirentBytes / kPageBytes;
  cache_.MarkDirty(PageKey{p.id, entry_page},
                   p.first_block + entry_page * kBlocksPerPage);
  co_return fds_.Open(OpenFile{id, 0, /*direct_io=*/false});
}

Task<void> Ext2SimFs::UnlinkImpl(const std::string& path) {
  co_await CpuNoisy(config_.costs.unlink_base);
  const auto [parent, name] = ResolveParent(path);
  if (parent < 0) {
    co_return;
  }
  Inode& p = inode(parent);
  auto it = p.entries.find(name);
  if (it == p.entries.end()) {
    co_return;
  }
  inode(it->second).unlinked = true;
  p.entries.erase(it);
  p.entry_order.erase(
      std::find(p.entry_order.begin(), p.entry_order.end(), name));
  cache_.MarkDirty(PageKey{p.id, 0}, p.first_block);
}

Task<FileAttr> Ext2SimFs::StatImpl(const std::string& path) {
  const std::size_t components = CountPathComponents(path);
  co_await CpuNoisy(config_.costs.stat_base +
                    config_.costs.lookup_per_component * components);
  FileAttr attr;
  const int id = ResolvePath(path);
  if (id >= 0) {
    const Inode& node = inode(id);
    attr.is_dir = node.is_dir;
    attr.size = node.is_dir ? DirSizeBytes(node) : node.size;
  }
  co_return attr;
}

}  // namespace osfs
