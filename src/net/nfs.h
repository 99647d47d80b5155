// An NFSv3-style network file system over the same link model
// (paper Figure 2: the NFS / NFSD path beside CIFS).
//
// NFS contrasts with CIFS in exactly the ways a latency profile exposes:
//
//  * Stateless request/reply RPCs -- every reply is a single burst the
//    client immediately consumes, and the next RPC carries the ACK, so
//    the delayed-ACK pathology of the Windows CIFS client cannot occur
//    regardless of server behaviour.
//  * LOOKUP walks one path component per RPC: opening "/a/b/c/f" costs
//    four round trips when the dentry cache is cold -- a characteristic
//    "lookup storm" mode at N x RTT that batched SMB opens do not have.
//  * READDIR returns one page of entries per RPC (no server push).
//  * Attribute caching with a timeout (ac-timeo): GETATTR results are
//    reused for a window, after which a revalidation RPC appears as a
//    separate latency mode.
//
// The server executes against a real exported Vfs (typically Ext2SimFs),
// so cold directories and files pay genuine disk latencies.
//
// NfsMount is a RemoteMount (src/net/remote_mount.h), the one network
// client core, which keeps the open files, the client page cache and the
// Close/Llseek/Read/Readdir bodies; each RPC carries the server's work as
// a task, and nfsd's reads, writes, creates and commits on the exported
// file system are src/net/exported.h's.
//
// Vfs times and names the ten operations; the mount times only its RPCs
// ("lookup", "getattr", "nfs_read", ...), which nest inside the span of
// the operation that issues them.

#ifndef OSPROF_SRC_NET_NFS_H_
#define OSPROF_SRC_NET_NFS_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/vfs.h"
#include "src/net/net.h"
#include "src/net/remote_mount.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/race_tracker.h"

namespace osnet {

using osprofilers::WrapIfAttached;

struct NfsConfig {
  NetConfig net;
  // Attribute-cache lifetime (Linux default acregmin = 3s).
  osim::Cycles attr_cache_timeout = static_cast<osim::Cycles>(3.0 * 1.7e9);
  // Dentry (name-lookup) cache lifetime.
  osim::Cycles dentry_cache_timeout = static_cast<osim::Cycles>(30.0 * 1.7e9);
  int entries_per_readdir = 64;
  std::uint32_t bytes_per_entry = 60;
  std::uint32_t request_bytes = 160;
  std::uint32_t small_reply_bytes = 112;
  osim::Cycles client_op_cpu = 1'000;
  osim::Cycles server_op_cpu = 3'500;
};

class NfsMount : public RemoteMount {
 public:
  NfsMount(osim::Kernel* kernel, osfs::Vfs* server_fs, NfsConfig config);

  std::uint64_t rpcs_sent() const { return rpcs_; }
  std::uint64_t lookup_rpcs() const { return lookups_; }
  std::uint64_t attr_cache_hits() const { return attr_hits_; }

 private:
  struct CachedAttr {
    osfs::FileAttr attr;
    osim::Cycles fetched_at = 0;
  };
  // One in-flight RPC: the client blocks until `complete`.  A local of
  // the calling coroutine's frame, which never moves, so `done` is held
  // by value.
  struct Rpc {
    explicit Rpc(osim::Kernel* kernel) : done(kernel, osprof::kLayerNet) {}

    Task<void> work;  // The server's part, started by nfsd.
    bool complete = false;
    osim::WaitQueue done;
    // Reply payload (filled by the work before the reply lands).
    osfs::FileAttr attr;
    std::vector<std::string> names;
    std::uint64_t cookie = 0;
    bool eof = false;
    std::int64_t result = 0;
  };

  // Issues one RPC: request packet, `work` on a server thread, single
  // reply burst.  The request consumes any pending ACK state implicitly
  // (every reply is acked by the next request -- standard RPC behaviour),
  // so no delayed ACKs ever fire.  `probe` is the pre-resolved latency
  // probe; `op` labels both packets.
  Task<void> Call(osprof::ProbeHandle probe, std::string_view op,
                  std::uint32_t reply_bytes, Task<void> work, Rpc* rpc) {
    return WrapIfAttached(profiler_, probe,
                          CallImpl(op, reply_bytes, std::move(work), rpc));
  }
  Task<void> CallImpl(std::string_view op, std::uint32_t reply_bytes,
                      Task<void> work, Rpc* rpc);
  // nfsd, one per RPC, spawned at the request's arrival: pays the server
  // CPU, runs the work and sends the reply.
  Task<void> Serve(std::string_view op, std::uint32_t reply_bytes, Rpc* rpc);

  // --- Vfs operation bodies ------------------------------------------------
  // The RPCs each body issues nest inside its span; direct_io is ignored.
  Task<int> OpenImpl(const std::string& path, bool direct_io) override;
  Task<std::int64_t> WriteImpl(int fd, std::uint64_t bytes) override;
  Task<void> FsyncImpl(int fd) override;
  Task<int> CreateImpl(const std::string& path) override;
  Task<void> UnlinkImpl(const std::string& path) override;
  Task<osfs::FileAttr> StatImpl(const std::string& path) override;
  // Per-RPC latencies ("lookup", "getattr", "nfs_read", ...), like the
  // paper's client-side profiles.
  void ResolveProbes(osprofilers::SimProfiler& profiler) override;

  // --- RemoteMount: one READ or READDIR RPC ---------------------------------
  Task<void> FetchPage(const std::string& path, std::uint64_t page) override;
  Task<void> FetchEntries(const std::string& path, RemoteDir* dir) override;

  // Path walk: one LOOKUP RPC per uncached component; fills attr_cache_.
  // `path` must outlive the walk, which spans awaits.
  Task<void> WalkPath(std::string_view path);

  // Server-side works; `path` is kept alive by the parked client.  Into
  // runs `call` on the exported fs and stores its result in `*out`.
  template <typename T, typename Out>
  static Task<void> Into(Task<T> call, Out* out) {
    *out = co_await call;
  }
  Task<void> ServerReaddir(const std::string& path, std::uint64_t cookie,
                           Rpc* rpc);

  bool AttrFresh(const std::string& path) const;

  NfsConfig config_;
  NetPipe c2s_;
  NetPipe s2c_;
  // The RPC probes, resolved by ResolveProbes().
  struct Probes {
    osprof::ProbeHandle lookup, getattr, nfs_read, nfs_write, nfs_readdir,
        commit, nfs_create, nfs_remove;
  };
  Probes probes_;

  // Client caches, race-checked like CIFS's attribute cache.
  osim::Shared<std::map<std::string, CachedAttr>> attr_cache_;
  // path -> cached at.
  osim::Shared<std::map<std::string, osim::Cycles>> dentry_cache_;
  std::uint64_t rpcs_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t attr_hits_ = 0;
};

}  // namespace osnet

#endif  // OSPROF_SRC_NET_NFS_H_
