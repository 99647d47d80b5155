#include "src/net/remote_mount.h"

#include <algorithm>

namespace osnet {

RemoteMount::RemoteMount(osim::Kernel* kernel, osfs::Vfs* server_fs,
                         osim::Cycles client_op_cpu, int readdir_batch,
                         osim::Cycles readdir_entry_cpu,
                         const char* page_cache_name)
    : kernel_(kernel),
      server_fs_(server_fs),
      client_op_cpu_(client_op_cpu),
      readdir_batch_(static_cast<std::size_t>(readdir_batch)),
      readdir_entry_cpu_(readdir_entry_cpu),
      page_cache_(*kernel, page_cache_name) {}

Task<void> RemoteMount::CloseImpl(int fd) {
  co_await kernel_->Cpu(client_op_cpu_ / 2);
  fds_.Close(fd);
}

Task<std::int64_t> RemoteMount::ReadImpl(int fd, std::uint64_t bytes) {
  RemoteFile& f = fds_.at(fd);
  if (f.attr.is_dir || bytes == 0 || f.pos >= f.attr.size) {
    co_await kernel_->Cpu(client_op_cpu_ / 4);
    co_return 0;
  }
  const std::uint64_t end = std::min(f.attr.size, f.pos + bytes);
  const std::uint64_t first_page = f.pos / osfs::kPageBytes;
  const std::uint64_t last_page = (end - 1) / osfs::kPageBytes;
  for (std::uint64_t page = first_page; page <= last_page; ++page) {
    const osfs::PageKey key{f.path_id, page};
    if (OSIM_SHARED_RO(page_cache_).count(key) == 0) {
      co_await FetchPage(f.path, page);
      OSIM_SHARED_RW(page_cache_).insert(key);
    }
    co_await kernel_->Cpu(1'400);  // Local copy-out.
  }
  const auto result = static_cast<std::int64_t>(end - f.pos);
  f.pos = end;
  co_return result;
}

Task<std::uint64_t> RemoteMount::LlseekImpl(int fd, std::uint64_t pos) {
  co_await kernel_->Cpu(client_op_cpu_ / 4);
  fds_.at(fd).pos = pos;
  co_return pos;
}

Task<osfs::DirentBatch> RemoteMount::ReaddirImpl(int fd,
                                                 std::uint64_t* /*value*/) {
  RemoteFile& f = fds_.at(fd);
  osfs::DirentBatch batch;
  if (!f.attr.is_dir) {
    batch.at_end = true;
    co_await kernel_->Cpu(client_op_cpu_ / 4);
    co_return batch;
  }
  RemoteDir& dir = f.dir;
  // Fetch more entries if the caller has consumed what we have.
  while (dir.served >= dir.names.size() && !dir.end_of_dir) {
    co_await FetchEntries(f.path, &dir);
  }
  if (dir.served >= dir.names.size()) {
    // Past EOF: local, immediate.
    batch.at_end = true;
    co_await kernel_->Cpu(90);
    co_return batch;
  }
  const std::size_t take =
      std::min(readdir_batch_, dir.names.size() - dir.served);
  for (std::size_t i = 0; i < take; ++i) {
    batch.names.push_back(dir.names[dir.served + i]);
  }
  dir.served += take;
  batch.at_end = dir.served >= dir.names.size() && dir.end_of_dir;
  co_await kernel_->Cpu(500 + readdir_entry_cpu_ * take);
  co_return batch;
}

}  // namespace osnet
