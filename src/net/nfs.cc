#include "src/net/nfs.h"

#include <algorithm>

#include "src/fs/ext2fs.h"
#include "src/fs/page_cache.h"
#include "src/net/exported.h"

namespace osnet {

NfsMount::NfsMount(osim::Kernel* kernel, osfs::Vfs* server_fs,
                   NfsConfig config)
    : RemoteMount(kernel, server_fs, config.client_op_cpu,
                  config.entries_per_readdir, /*readdir_entry_cpu=*/40,
                  "nfs.page_cache"),
      config_(config),
      c2s_(kernel, config.net, "client", nullptr),
      s2c_(kernel, config.net, "server", nullptr),
      attr_cache_(*kernel, "nfs.attr_cache"),
      dentry_cache_(*kernel, "nfs.dentry_cache") {}

void NfsMount::ResolveProbes(osprofilers::SimProfiler& profiler) {
  probes_ = {profiler.Resolve("lookup"),      profiler.Resolve("getattr"),
             profiler.Resolve("nfs_read"),    profiler.Resolve("nfs_write"),
             profiler.Resolve("nfs_readdir"), profiler.Resolve("commit"),
             profiler.Resolve("nfs_create"),  profiler.Resolve("nfs_remove")};
}

bool NfsMount::AttrFresh(const std::string& path) const {
  const auto& cache = OSIM_SHARED_RO(attr_cache_);
  const auto it = cache.find(path);
  return it != cache.end() &&
         kernel_->now() - it->second.fetched_at <= config_.attr_cache_timeout;
}

Task<void> NfsMount::CallImpl(std::string_view op, std::uint32_t reply_bytes,
                              Task<void> work, Rpc* rpc) {
  ++rpcs_;
  co_await kernel_->Cpu(config_.client_op_cpu);
  rpc->work = std::move(work);
  c2s_.Send(config_.request_bytes, PacketKind::kRequest, op,
            [this, op, reply_bytes, rpc] {
              kernel_->Spawn("nfsd", Serve(op, reply_bytes, rpc));
            });
  while (!rpc->complete) {
    co_await rpc->done.Wait();
  }
}

Task<void> NfsMount::Serve(std::string_view op, std::uint32_t reply_bytes,
                           Rpc* rpc) {
  co_await kernel_->Cpu(config_.server_op_cpu);
  co_await rpc->work;
  // The reply is a single burst whose final segment completes the RPC.
  s2c_.SendSegmented(reply_bytes, op, [rpc](int index, int total) {
    if (index == total - 1) {
      rpc->complete = true;
      rpc->done.WakeAll();
    }
  });
}

// --- Server works ------------------------------------------------------------

Task<void> NfsMount::ServerReaddir(const std::string& path,
                                   std::uint64_t cookie, Rpc* rpc) {
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

// --- Path walking ----------------------------------------------------------

Task<void> NfsMount::WalkPath(std::string_view path) {
  // One LOOKUP per component not in the dentry cache: the NFS lookup
  // storm.  Each lookup also refreshes the component's attributes.
  std::string prefix;
  for (std::string_view part : osfs::PathComponents(path)) {
    prefix += '/';
    prefix += part;
    const auto& dentries = OSIM_SHARED_RO(dentry_cache_);
    const auto it = dentries.find(prefix);
    if (it != dentries.end() &&
        kernel_->now() - it->second <= config_.dentry_cache_timeout) {
      continue;
    }
    ++lookups_;
    Rpc rpc(kernel_);
    co_await Call(probes_.lookup, "lookup", config_.small_reply_bytes,
                  Into(server_fs_->Stat(prefix), &rpc.attr), &rpc);
    OSIM_SHARED_RW(dentry_cache_)[prefix] = kernel_->now();
    OSIM_SHARED_RW(attr_cache_)[prefix] = CachedAttr{rpc.attr, kernel_->now()};
  }
}

// --- RemoteMount -----------------------------------------------------------

Task<void> NfsMount::FetchPage(const std::string& path, std::uint64_t page) {
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_read, "nfs_read",
                static_cast<std::uint32_t>(osfs::kPageBytes),
                Into(ExportedRead(server_fs_, path, page * osfs::kPageBytes,
                                  osfs::kPageBytes),
                     &rpc.result),
                &rpc);
}

Task<void> NfsMount::FetchEntries(const std::string& path, RemoteDir* dir) {
  Rpc rpc(kernel_);
  const auto reply_bytes = static_cast<std::uint32_t>(
      config_.entries_per_readdir * config_.bytes_per_entry);
  co_await Call(probes_.nfs_readdir, "nfs_readdir", reply_bytes,
                ServerReaddir(path, dir->cookie, &rpc), &rpc);
  for (std::string& name : rpc.names) {
    dir->names.push_back(std::move(name));
  }
  dir->cookie = rpc.cookie;
  dir->end_of_dir = rpc.eof;
}

// --- Vfs operations --------------------------------------------------------

Task<int> NfsMount::OpenImpl(const std::string& path, bool /*direct_io*/) {
  co_await kernel_->Cpu(config_.client_op_cpu);
  co_await WalkPath(path);
  if (!AttrFresh(path)) {
    Rpc rpc(kernel_);
    co_await Call(probes_.getattr, "getattr", config_.small_reply_bytes,
                  Into(server_fs_->Stat(path), &rpc.attr), &rpc);
    OSIM_SHARED_RW(attr_cache_)[path] = CachedAttr{rpc.attr, kernel_->now()};
  } else {
    ++attr_hits_;
  }
  co_return OpenRemote(path, OSIM_SHARED_RO(attr_cache_).at(path).attr);
}

Task<std::int64_t> NfsMount::WriteImpl(int fd, std::uint64_t bytes) {
  RemoteFile& f = file(fd);
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_write, "nfs_write", config_.small_reply_bytes,
                Into(ExportedWrite(server_fs_, f.path, f.pos, bytes),
                     &rpc.result),
                &rpc);
  f.pos += bytes;
  f.attr.size = std::max(f.attr.size, f.pos);
  OSIM_SHARED_RW(attr_cache_)[f.path] = CachedAttr{f.attr, kernel_->now()};
  co_return static_cast<std::int64_t>(bytes);
}

Task<void> NfsMount::FsyncImpl(int fd) {
  Rpc rpc(kernel_);
  co_await Call(probes_.commit, "commit", config_.small_reply_bytes,
                ExportedFlush(server_fs_, file(fd).path), &rpc);
}

Task<int> NfsMount::CreateImpl(const std::string& path) {
  co_await WalkPath(osfs::SplitParent(path).parent);
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_create, "nfs_create", config_.small_reply_bytes,
                Into(ExportedCreate(server_fs_, path), &rpc.result), &rpc);
  if (rpc.result < 0) {
    co_return -1;
  }
  OSIM_SHARED_RW(attr_cache_)[path] =
      CachedAttr{osfs::FileAttr{0, false}, kernel_->now()};
  OSIM_SHARED_RW(dentry_cache_)[path] = kernel_->now();
  co_return OpenRemote(path, OSIM_SHARED_RO(attr_cache_).at(path).attr);
}

Task<void> NfsMount::UnlinkImpl(const std::string& path) {
  Rpc rpc(kernel_);
  co_await Call(probes_.nfs_remove, "nfs_remove", config_.small_reply_bytes,
                server_fs_->Unlink(path), &rpc);
  OSIM_SHARED_RW(attr_cache_).erase(path);
  OSIM_SHARED_RW(dentry_cache_).erase(path);
}

Task<osfs::FileAttr> NfsMount::StatImpl(const std::string& path) {
  co_await kernel_->Cpu(config_.client_op_cpu / 4);
  if (!AttrFresh(path)) {
    co_await WalkPath(path);
    if (!AttrFresh(path)) {
      Rpc rpc(kernel_);
      co_await Call(probes_.getattr, "getattr", config_.small_reply_bytes,
                    Into(server_fs_->Stat(path), &rpc.attr), &rpc);
      OSIM_SHARED_RW(attr_cache_)[path] =
          CachedAttr{rpc.attr, kernel_->now()};
    }
  } else {
    ++attr_hits_;
  }
  co_return OSIM_SHARED_RO(attr_cache_).at(path).attr;
}

}  // namespace osnet
