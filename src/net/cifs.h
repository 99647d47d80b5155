// CIFS/SMB over the network model (paper §6.4, Figures 10 and 11).
//
// CifsMount implements the osfs::Vfs interface on top of a remote server
// file system, so the same workloads (grep) run unchanged over the
// "network mount".  The protocol machinery reproduces the paper's
// pathology:
//
//  * Directory enumeration returns entries in SMB Find batches.  Each
//    batch is larger than one TCP segment, so it is split into an MSS
//    burst (the "reply + reply continuation 1 + reply continuation 2" of
//    Figure 11).
//  * A WINDOWS client lets the server push `batches_per_transaction`
//    batches per FindFirst/FindNext transaction; the server, however,
//    sends the next "transact continuation" burst only after everything
//    already sent is ACKed.  The client ACKs every second segment
//    immediately but delays the ACK of a trailing odd segment by 200ms --
//    and has nothing else to send -- so each extra burst costs a 200ms
//    stall.  FindFirst/FindNext latencies land in buckets 26-30.
//  * A LINUX client never lets the server push: it issues the next
//    FindNext request immediately, and the request carries the pending
//    ACK, so no stall occurs (the right-hand timeline of Figure 11).
//  * Disabling delayed ACKs (the paper's registry-key experiment) makes
//    the Windows client ACK everything immediately: the stalls vanish and
//    grep elapsed time improves by roughly 20%.
//
// Reads/stats of data the client has not cached cost a server round trip
// (>= 168us -> bucket 18+); cached operations stay local (buckets < 18),
// reproducing Figure 10's local/remote boundary.
//
// CifsMount is a RemoteMount (src/net/remote_mount.h), the one network
// client core, which keeps the open files, the client page cache and the
// Close/Llseek/Read/Readdir bodies.  Every request goes through Exchange:
// the client builds the server's work as a task the request carries, and
// smbd, spawned when the request arrives, runs it and sends the final
// reply burst.  The work's reads, writes, creates and flushes on the
// exported file system are src/net/exported.h's.
//
// Vfs times and names the ten operations; the mount times only its Find
// transactions ("findfirst", "findnext").  Packets are recorded only into
// a PacketTrace the caller passes in (Figure 11's timelines).

#ifndef OSPROF_SRC_NET_CIFS_H_
#define OSPROF_SRC_NET_CIFS_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fs/vfs.h"
#include "src/net/net.h"
#include "src/net/remote_mount.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/race_tracker.h"

namespace osnet {

using osprofilers::SimProfiler;
using osprofilers::WrapIfAttached;

enum class ClientOs { kWindows, kLinux };

struct CifsConfig {
  NetConfig net;
  ClientOs client_os = ClientOs::kWindows;
  bool client_delayed_ack = true;  // The registry switch.
  int entries_per_batch = 40;
  // How many batches a Windows-client Find transaction pushes.
  int batches_per_transaction = 2;
  std::uint32_t bytes_per_entry = 100;
  std::uint32_t request_bytes = 200;
  std::uint32_t small_reply_bytes = 128;
  osim::Cycles client_op_cpu = 1'200;
  osim::Cycles server_op_cpu = 4'000;
};

class CifsMount : public RemoteMount {
 public:
  // `server_fs` is the file system exported by the server (typically an
  // Ext2SimFs with its own disk, in the same simulated world).  Every
  // packet of the connection is recorded into `trace` when one is given;
  // without one no packet record is built.
  CifsMount(osim::Kernel* kernel, osfs::Vfs* server_fs, CifsConfig config,
            PacketTrace* trace = nullptr);

  DelayedAckPolicy& client_ack_policy() { return *client_ack_; }

  std::uint64_t server_requests() const {
    return OSIM_SHARED_RO(server_requests_);
  }
  // How often the server's synchronous push actually stalled on ACKs.
  std::uint64_t delayed_ack_stalls() const {
    return server_ledger_.blocked_waits();
  }

 private:
  // One request and its reply: a local of the calling coroutine's frame,
  // which never moves, so `done` is held by value.
  struct Transaction {
    explicit Transaction(osim::Kernel* kernel, Task<std::uint32_t> work = {},
                         std::string_view reply_label = {})
        : work(std::move(work)),
          reply_label(reply_label),
          done(kernel, osprof::kLayerNet) {}

    // The server's part, started by smbd: returns the byte count of the
    // final reply burst, which smbd sends labelled `reply_label`.
    Task<std::uint32_t> work;
    std::string_view reply_label;
    // A Find reply: the entries, each with its metadata.
    std::vector<std::string> names;
    std::vector<osfs::FileAttr> attrs;
    std::uint64_t next_cookie = 0;
    bool end_of_dir = false;
    bool complete = false;  // The final burst has landed.
    osim::WaitQueue done;
  };

  // --- Vfs operation bodies ------------------------------------------------
  // CIFS reads always go through the client cache here, so direct_io is
  // ignored.
  Task<int> OpenImpl(const std::string& path, bool direct_io) override;
  Task<std::int64_t> WriteImpl(int fd, std::uint64_t bytes) override;
  Task<void> FsyncImpl(int fd) override;
  Task<int> CreateImpl(const std::string& path) override;
  Task<void> UnlinkImpl(const std::string& path) override;
  Task<osfs::FileAttr> StatImpl(const std::string& path) override;
  // The client-side profile of Figure 10 adds the Find transactions,
  // "findfirst" and "findnext", to the Vfs operations.
  void ResolveProbes(SimProfiler& profiler) override {
    findfirst_ = profiler.Resolve("findfirst");
    findnext_ = profiler.Resolve("findnext");
  }

  // --- RemoteMount ---------------------------------------------------------
  // A page read is one request with a segmented reply.
  Task<void> FetchPage(const std::string& path, std::uint64_t page) override;
  // One Find transaction (FindFirst when none has run).  Latency of the
  // whole transaction is the profiled FindFirst/FindNext time.
  Task<void> FetchEntries(const std::string& path, RemoteDir* dir) override {
    return WrapIfAttached(profiler_, dir->started ? findnext_ : findfirst_,
                          FindImpl(path, dir));
  }
  Task<void> FindImpl(const std::string& path, RemoteDir* dir);

  Task<void> FetchAttr(const std::string& path);  // Network stat if uncached.

  // Sends `txn`'s request, piggybacking any pending ACK, and parks until
  // the final reply burst's last segment lands.
  Task<void> Exchange(std::string_view request_label, Transaction* txn);

  // --- Server side ---------------------------------------------------------
  // smbd, one per request, spawned at its arrival: counts the request,
  // pays the server CPU, runs the work and sends the final burst.
  Task<void> Serve(Transaction* txn);
  // Sends one reply burst as MSS segments; marks `txn` complete on the
  // last segment of the final burst.
  void SendBurst(std::string_view label, std::uint32_t bytes,
                 bool final_burst, Transaction* txn);

  // Works: each returns its final reply burst's byte count.  SmallReply
  // runs `call` on the exported fs and answers with one small burst.
  template <typename T>
  Task<std::uint32_t> SmallReply(Task<T> call);
  Task<std::uint32_t> ServeStat(const std::string& path);
  Task<std::uint32_t> ServeRead(const std::string& path, std::uint64_t page);
  // Sends every Find batch of the transaction but the last.
  Task<std::uint32_t> ServeFind(const std::string& path, bool first,
                                std::uint64_t cookie, Transaction* txn);

  // The server's listing of one directory.  Lives in a map node, which
  // never moves, so it holds its wait queue by value.
  struct ServerListing {
    explicit ServerListing(osim::Kernel* kernel)
        : loaded_waiters(kernel, osprof::kLayerDriver) {}

    std::vector<std::string> names;
    std::vector<osfs::FileAttr> attrs;  // Parallel to names.
    // Set by the first Find transaction on the directory before its
    // first await; a later one waits on `loaded_waiters` for `loaded`
    // instead of enumerating the directory again.
    bool loading = false;
    bool loaded = false;
    osim::WaitQueue loaded_waiters;
  };
  // Enumerates `path` on the exported fs once, however many Find
  // transactions ask for it at the same time.
  Task<void> ServerEnsureListing(const std::string& path);

  CifsConfig config_;
  NetPipe c2s_;
  NetPipe s2c_;
  AckLedger server_ledger_;
  std::unique_ptr<DelayedAckPolicy> client_ack_;
  osprof::ProbeHandle findfirst_, findnext_;

  // Client- and server-side caches whose fill protocols span network
  // round trips; the request/reply token chain provides their
  // happens-before cover, so unsynchronized access is a real race.
  osim::Shared<std::map<std::string, osfs::FileAttr>> attr_cache_;
  osim::Shared<std::map<std::string, ServerListing>> server_listings_;
  osim::Shared<std::uint64_t> server_requests_;
};

}  // namespace osnet

#endif  // OSPROF_SRC_NET_CIFS_H_
