#include "src/fs/ntfs.h"

#include <algorithm>

namespace osfs {

NtfsSimFs::NtfsSimFs(osim::Kernel* kernel, osim::SimDisk* disk,
                     Ext2Config config, NtfsCosts ntfs_costs)
    : Ext2SimFs(kernel, disk, config), ntfs_costs_(ntfs_costs) {}

Task<std::uint64_t> NtfsSimFs::LlseekImpl(int fd, std::uint64_t pos) {
  // SetFilePointer: the position lives in the handle; no shared state, no
  // lock (§6.1's NTFS result).
  co_await CpuNoisy(ntfs_costs_.set_file_pointer);
  OpenFile& f = fds_.at(fd);
  f.pos = pos;
  co_return f.pos;
}

Task<std::int64_t> NtfsSimFs::ReadImpl(int fd, std::uint64_t bytes) {
  OpenFile& f = fds_.at(fd);
  Inode& node = inode(f.inode);
  if (node.is_dir) {
    co_return -1;
  }
  if (f.pos >= node.size || bytes == 0) {
    // Degenerate requests complete through Fast I/O.
    ++fast_io_;
    co_await CpuNoisy(ntfs_costs_.fast_io_read / 4);
    co_return 0;
  }
  const std::uint64_t end = std::min(node.size, f.pos + bytes);
  const std::uint64_t first_page = f.pos / kPageBytes;
  const std::uint64_t last_page = (end - 1) / kPageBytes;

  if (f.direct_io) {
    // Unbuffered I/O always builds an IRP; unlike Linux 2.6.11 O_DIRECT
    // there is no inode semaphore held across the transfer.
    ++irps_;
    co_await CpuNoisy(ntfs_costs_.irp_build);
    const std::uint64_t first_block = node.first_block + f.pos / kBlockBytes;
    const std::uint64_t count = std::max<std::uint64_t>(
        1, (end - f.pos + kBlockBytes - 1) / kBlockBytes);
    (void)co_await disk_->SyncRead(first_block, count);
    co_await CpuNoisy(ntfs_costs_.irp_complete);
    const std::int64_t got = static_cast<std::int64_t>(end - f.pos);
    f.pos = end;
    co_return got;
  }

  bool all_cached = true;
  for (std::uint64_t page = first_page; page <= last_page; ++page) {
    if (!cache_.Contains(PageKey{node.id, page})) {
      all_cached = false;
    }
  }

  if (all_cached) {
    // Fast I/O: bypass the driver stack and copy straight from the cache
    // manager (the cheap mode of the bimodal Windows read profile).
    ++fast_io_;
    co_await CpuNoisy(ntfs_costs_.fast_io_read);
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      co_await CpuNoisy(config_.costs.read_copy_per_page);
    }
  } else {
    // The full IRP path: build the packet, fault the missing pages in,
    // complete the packet.
    ++irps_;
    co_await CpuNoisy(ntfs_costs_.irp_build);
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      const PageKey key{node.id, page};
      if (!cache_.Contains(key)) {
        co_await ReadPage(node.id, page);
        co_await cache_.WaitForPage(key);
      }
      co_await CpuNoisy(config_.costs.read_copy_per_page);
    }
    co_await CpuNoisy(ntfs_costs_.irp_complete);
  }
  const std::int64_t got = static_cast<std::int64_t>(end - f.pos);
  f.pos = end;
  co_return got;
}

}  // namespace osfs
