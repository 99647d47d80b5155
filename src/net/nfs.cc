#include "src/net/nfs.h"

#include <algorithm>

#include "src/fs/ext2fs.h"
#include "src/fs/page_cache.h"

namespace osnet {

NfsMount::NfsMount(osim::Kernel* kernel, osfs::Vfs* server_fs,
                   NfsConfig config)
    : kernel_(kernel),
      server_fs_(server_fs),
      config_(config),
      c2s_(kernel, config.net, "client", nullptr),
      s2c_(kernel, config.net, "server", nullptr) {}

void NfsMount::ResolveProbes(osprofilers::SimProfiler& profiler) {
  probes_ = {profiler.Resolve("lookup"),      profiler.Resolve("getattr"),
             profiler.Resolve("nfs_read"),    profiler.Resolve("nfs_write"),
             profiler.Resolve("nfs_readdir"), profiler.Resolve("commit"),
             profiler.Resolve("nfs_create"),  profiler.Resolve("nfs_remove")};
}

bool NfsMount::AttrFresh(const std::string& path) const {
  auto it = attr_cache_.find(path);
  return it != attr_cache_.end() &&
         kernel_->now() - it->second.fetched_at <= config_.attr_cache_timeout;
}

Task<void> NfsMount::CallImpl(const std::string& op, std::uint32_t reply_bytes,
                              Task<void> server_work, Rpc* rpc) {
  ++rpcs_;
  co_await kernel_->Cpu(config_.client_op_cpu);
  // Wrap the server work in a handler thread spawned at request arrival;
  // the reply is a single burst whose final segment completes the RPC.
  struct Holder {
    Task<void> work;
  };
  auto holder = std::make_shared<Holder>();
  holder->work = std::move(server_work);
  c2s_.Send(config_.request_bytes, PacketKind::kRequest, op + " call",
            [this, op, reply_bytes, rpc, holder] {
              auto handler = [](NfsMount* self, std::string op_name,
                                std::uint32_t bytes, Rpc* r,
                                std::shared_ptr<Holder> h) -> Task<void> {
                co_await self->kernel_->Cpu(self->config_.server_op_cpu);
                co_await std::move(h->work);
                self->s2c_.SendSegmented(
                    bytes, op_name + " reply",
                    [r](int index, int total) {
                      if (index == total - 1) {
                        r->complete = true;
                        r->done.WakeAll();
                      }
                    });
              };
              kernel_->Spawn("nfsd:" + op,
                             handler(this, op, reply_bytes, rpc, holder));
            });
  while (!rpc->complete) {
    co_await rpc->done.Wait();
  }
}

// --- Server handlers ----------------------------------------------------------

Task<void> NfsMount::ServerGetattr(std::string path, Rpc* rpc) {
  rpc->attr = co_await server_fs_->Stat(path);
}

Task<void> NfsMount::ServerReaddir(std::string path, std::uint64_t cookie,
                                   Rpc* rpc) {
  const int fd = co_await server_fs_->Open(path, false);
  if (fd < 0) {
    rpc->eof = true;
    co_return;
  }
  (void)co_await server_fs_->Llseek(fd, cookie);
  // Collect up to entries_per_readdir entries starting at the cookie.
  while (rpc->names.size() <
         static_cast<std::size_t>(config_.entries_per_readdir)) {
    const osfs::DirentBatch batch = co_await server_fs_->Readdir(fd);
    if (batch.names.empty()) {
      rpc->eof = true;
      break;
    }
    for (const std::string& name : batch.names) {
      rpc->names.push_back(name);
    }
    if (batch.at_end) {
      rpc->eof = true;
      break;
    }
  }
  rpc->cookie = cookie + rpc->names.size() * osfs::kDirentBytes;
  co_await server_fs_->Close(fd);
}

Task<void> NfsMount::ServerRead(std::string path, std::uint64_t offset,
                                std::uint64_t bytes, Rpc* rpc) {
  const int fd = co_await server_fs_->Open(path, false);
  if (fd < 0) {
    rpc->result = -1;
    co_return;
  }
  (void)co_await server_fs_->Llseek(fd, offset);
  rpc->result = co_await server_fs_->Read(fd, bytes);
  co_await server_fs_->Close(fd);
}

Task<void> NfsMount::ServerWrite(std::string path, std::uint64_t offset,
                                 std::uint64_t bytes, Rpc* rpc) {
  const int fd = co_await server_fs_->Open(path, false);
  if (fd < 0) {
    rpc->result = -1;
    co_return;
  }
  (void)co_await server_fs_->Llseek(fd, offset);
  rpc->result = co_await server_fs_->Write(fd, bytes);
  co_await server_fs_->Close(fd);
}

Task<void> NfsMount::ServerCreate(std::string path, Rpc* rpc) {
  const int fd = co_await server_fs_->Create(path);
  rpc->result = fd;
  if (fd >= 0) {
    co_await server_fs_->Close(fd);
  }
}

Task<void> NfsMount::ServerUnlink(std::string path, Rpc* rpc) {
  co_await server_fs_->Unlink(path);
  rpc->result = 0;
}

Task<void> NfsMount::ServerCommit(std::string path, Rpc* rpc) {
  const int fd = co_await server_fs_->Open(path, false);
  if (fd >= 0) {
    co_await server_fs_->Fsync(fd);
    co_await server_fs_->Close(fd);
  }
  rpc->result = 0;
}

// --- Path walking --------------------------------------------------------------

Task<void> NfsMount::WalkPath(std::string_view path) {
  // One LOOKUP per component not in the dentry cache: the NFS lookup
  // storm.  Each lookup also refreshes the component's attributes.
  std::string prefix;
  for (std::string_view part : osfs::PathComponents(path)) {
    prefix += '/';
    prefix += part;
    auto it = dentry_cache_.find(prefix);
    if (it != dentry_cache_.end() &&
        kernel_->now() - it->second <= config_.dentry_cache_timeout) {
      continue;
    }
    ++lookups_;
    Rpc rpc(kernel_);
    co_await Call(probes_.lookup, "lookup", config_.small_reply_bytes,
                  ServerGetattr(prefix, &rpc), &rpc);
    dentry_cache_[prefix] = kernel_->now();
    attr_cache_[prefix] = CachedAttr{rpc.attr, kernel_->now()};
  }
}

// --- Vfs operations --------------------------------------------------------------

Task<int> NfsMount::OpenImpl(const std::string& path, bool /*direct_io*/) {
  co_await kernel_->Cpu(config_.client_op_cpu);
  co_await WalkPath(path);
  if (!AttrFresh(path)) {
    Rpc rpc(kernel_);
    co_await Call(probes_.getattr, "getattr", config_.small_reply_bytes,
                  ServerGetattr(path, &rpc), &rpc);
    attr_cache_[path] = CachedAttr{rpc.attr, kernel_->now()};
  } else {
    ++attr_hits_;
  }
  const int fd = fds_.Open({});
  ClientFile& f = fds_.at(fd);
  f.path = path;
  f.attr = attr_cache_[path].attr;
  co_return fd;
}

Task<void> NfsMount::CloseImpl(int fd) {
  co_await kernel_->Cpu(config_.client_op_cpu / 2);
  fds_.Close(fd);
}

Task<std::int64_t> NfsMount::ReadImpl(int fd, std::uint64_t bytes) {
  ClientFile& f = fds_.at(fd);
  std::int64_t result = 0;
  if (f.attr.is_dir || bytes == 0 || f.pos >= f.attr.size) {
    co_await kernel_->Cpu(config_.client_op_cpu / 4);
  } else {
    const std::uint64_t end = std::min(f.attr.size, f.pos + bytes);
    const std::uint64_t first_page = f.pos / osfs::kPageBytes;
    const std::uint64_t last_page = (end - 1) / osfs::kPageBytes;
    for (std::uint64_t page = first_page; page <= last_page; ++page) {
      if (page_cache_.count({f.path, page}) == 0) {
        Rpc rpc(kernel_);
        co_await Call(probes_.nfs_read, "nfs_read",
                      static_cast<std::uint32_t>(osfs::kPageBytes),
                      ServerRead(f.path, page * osfs::kPageBytes,
                                 osfs::kPageBytes, &rpc),
                      &rpc);
        page_cache_.insert({f.path, page});
      }
      co_await kernel_->Cpu(1'400);  // Copy-out.
    }
    result = static_cast<std::int64_t>(end - f.pos);
    f.pos = end;
  }
  co_return result;
}

Task<std::int64_t> NfsMount::WriteImpl(int fd, std::uint64_t bytes) {
  ClientFile& f = fds_.at(fd);
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_write, "nfs_write", config_.small_reply_bytes,
                ServerWrite(f.path, f.pos, bytes, &rpc), &rpc);
  ClientFile& f2 = fds_.at(fd);
  f2.pos += bytes;
  f2.attr.size = std::max(f2.attr.size, f2.pos);
  attr_cache_[f2.path] = CachedAttr{f2.attr, kernel_->now()};
  co_return static_cast<std::int64_t>(bytes);
}

Task<std::uint64_t> NfsMount::LlseekImpl(int fd, std::uint64_t pos) {
  co_await kernel_->Cpu(config_.client_op_cpu / 4);
  ClientFile& f = fds_.at(fd);
  f.pos = pos;
  co_return f.pos;
}

Task<osfs::DirentBatch> NfsMount::ReaddirImpl(int fd,
                                              std::uint64_t* /*value*/) {
  ClientFile& f = fds_.at(fd);
  osfs::DirentBatch batch;
  if (!f.attr.is_dir) {
    batch.at_end = true;
    co_await kernel_->Cpu(config_.client_op_cpu / 4);
  } else {
    while (f.dir_served >= f.dir_names.size() && !f.dir_eof) {
      Rpc rpc(kernel_);
      const auto reply_bytes = static_cast<std::uint32_t>(
          config_.entries_per_readdir * config_.bytes_per_entry);
      co_await Call(probes_.nfs_readdir, "nfs_readdir", reply_bytes,
                    ServerReaddir(f.path, f.dir_cookie, &rpc), &rpc);
      ClientFile& f2 = fds_.at(fd);
      for (std::string& name : rpc.names) {
        f2.dir_names.push_back(std::move(name));
      }
      f2.dir_cookie = rpc.cookie;
      f2.dir_eof = rpc.eof;
    }
    ClientFile& f3 = fds_.at(fd);
    if (f3.dir_served >= f3.dir_names.size()) {
      batch.at_end = true;
      co_await kernel_->Cpu(90);
    } else {
      const std::size_t take =
          std::min(static_cast<std::size_t>(config_.entries_per_readdir),
                   f3.dir_names.size() - f3.dir_served);
      for (std::size_t i = 0; i < take; ++i) {
        batch.names.push_back(f3.dir_names[f3.dir_served + i]);
      }
      f3.dir_served += take;
      batch.at_end = f3.dir_served >= f3.dir_names.size() && f3.dir_eof;
      co_await kernel_->Cpu(500 + 40 * take);
    }
  }
  co_return batch;
}

Task<void> NfsMount::FsyncImpl(int fd) {
  const std::string path = fds_.at(fd).path;
  Rpc rpc(kernel_);
  co_await Call(probes_.commit, "commit", config_.small_reply_bytes,
                ServerCommit(path, &rpc), &rpc);
}

Task<int> NfsMount::CreateImpl(const std::string& path) {
  co_await WalkPath(std::string_view(path).substr(0, path.find_last_of('/')));
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_create, "nfs_create", config_.small_reply_bytes,
                ServerCreate(path, &rpc), &rpc);
  if (rpc.result < 0) {
    co_return -1;
  }
  attr_cache_[path] = CachedAttr{osfs::FileAttr{0, false}, kernel_->now()};
  dentry_cache_[path] = kernel_->now();
  const int fd = fds_.Open({});
  ClientFile& f = fds_.at(fd);
  f.path = path;
  f.attr = attr_cache_[path].attr;
  co_return fd;
}

Task<void> NfsMount::UnlinkImpl(const std::string& path) {
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_remove, "nfs_remove", config_.small_reply_bytes,
                ServerUnlink(path, &rpc), &rpc);
  attr_cache_.erase(path);
  dentry_cache_.erase(path);
}

Task<osfs::FileAttr> NfsMount::StatImpl(const std::string& path) {
  co_await kernel_->Cpu(config_.client_op_cpu / 4);
  if (!AttrFresh(path)) {
    co_await WalkPath(path);
    if (!AttrFresh(path)) {
      Rpc rpc(kernel_);
      co_await Call(probes_.getattr, "getattr", config_.small_reply_bytes,
                    ServerGetattr(path, &rpc), &rpc);
      attr_cache_[path] = CachedAttr{rpc.attr, kernel_->now()};
    }
  } else {
    ++attr_hits_;
  }
  const osfs::FileAttr attr = attr_cache_[path].attr;
  co_return attr;
}

}  // namespace osnet
