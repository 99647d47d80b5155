// The distributed lock manager: OCFS2-style cluster-wide resource locks.
//
// Every named resource (ClusterFs uses "inode:<n>") is *mastered* on one
// node, chosen by hashing the name; the master keeps the authoritative
// grant table and a FIFO queue of waiters.  Each node additionally runs a
// DLM daemon task that owns that node's *lock cache*: once a node holds a
// grant it keeps it across client operations -- repeated local acquires
// are cache hits costing nothing on the wire -- until a conflicting
// request elsewhere makes the master send a BAST (blocking asynchronous
// callback, OCFS2's term) asking the holder to downgrade.  An exclusive
// holder flushes dirty state through the registered downgrade hook before
// answering, so by the time the waiter's grant arrives, the shared disk
// is current.  Shared-write workloads therefore ping-pong: every acquire
// pays request + BAST + peer flush + grant, and the client-side stall
// splits between kLayerNet (the wire round trip to the master) and
// kLayerLockWait (queued behind the peer's revoke).
//
// Concurrency discipline: all lock-table state lives in osim::Shared<T>
// cells owned by exactly one daemon task -- clients and remote nodes
// reach it only by posting inbox messages (local: plain FIFO push;
// remote: a Fabric send with real wire cost).  Grants and releases are
// reported to the kernel's lock-order and race trackers in *client*
// context under one cluster-wide identity per resource name, so an
// acquired-while-held edge spanning two nodes lands in the same merged
// lock graph as local semaphores, and an EX-grant handoff is a
// happens-before edge ordering the nodes' data accesses for SimRace.

#ifndef OSPROF_SRC_NET_DLM_H_
#define OSPROF_SRC_NET_DLM_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <string>

#include "src/core/layered.h"
#include "src/net/fabric.h"
#include "src/sim/kernel.h"
#include "src/sim/race_tracker.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace osnet {

// Lock modes, ordered by strength.  kProtectedRead grants are compatible
// with each other; kExclusive is compatible with nothing.
enum class DlmMode { kNull = 0, kProtectedRead = 1, kExclusive = 2 };

bool DlmCompatible(DlmMode a, DlmMode b);

struct DlmConfig {
  // Wire sizes of the protocol messages (request/reply carry the resource
  // name and modes; BASTs are a little smaller).
  std::uint32_t request_bytes = 192;
  std::uint32_t reply_bytes = 192;
  std::uint32_t grant_bytes = 192;
  std::uint32_t bast_bytes = 160;
  std::uint32_t downgrade_bytes = 176;
  // Client-side cost of building a request and looking up the lockres.
  osim::Cycles request_cpu = 1'800;
  // Daemon-side cost of servicing one protocol message.
  osim::Cycles service_cpu = 2'200;
};

class Dlm {
 public:
  // The hook a node registers to flush dirty state for `resource` before
  // an exclusive grant is surrendered (ClusterFs writes back the inode's
  // dirty pages).  Runs in the node's daemon task; must not call back
  // into the Dlm.
  using DowngradeHook =
      std::function<osim::Task<void>(const std::string& resource)>;

  Dlm(osim::Kernel* kernel, Fabric* fabric, DlmConfig config = {});

  void SetDowngradeHook(int node, DowngradeHook hook);

  // Spawns one daemon task per node ("dlmd<n>", pinned to node n).
  void Start();

  // Posts a stop message to every daemon; they exit after draining their
  // inboxes.  Call from task or kernel context once no client can issue
  // further acquires (the runner's controller task does, after joining
  // the workload), or RunUntilThreadsFinish never returns.
  void Shutdown();

  // Acquires `resource` in `mode` for the calling task's node.  Must run
  // in task context.  Cache hits complete after the request CPU cost;
  // misses go to the master and the caller parks -- first for the wire
  // round trip (kLayerNet when the master is remote), then, if queued
  // behind conflicting holders, for the revoke to complete
  // (kLayerLockWait).
  osim::Task<void> Acquire(const std::string& resource, DlmMode mode);

  // Releases one acquisition.  The node keeps the cached grant until the
  // master revokes it; a release only triggers wire traffic when a
  // revoke is pending and this was the last local user.
  void Release(const std::string& resource, DlmMode mode);

  // Master placement (FNV-1a over the name, mod nodes): deterministic
  // and committed to by the goldens, so not std::hash.
  int MasterOf(const std::string& resource) const;

  // --- Counters ---------------------------------------------------------
  std::uint64_t acquires() const { return acquires_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t remote_requests() const { return remote_requests_; }
  std::uint64_t queued_waits() const { return queued_waits_; }
  std::uint64_t basts_sent() const { return basts_sent_; }
  std::uint64_t downgrades() const { return downgrades_; }

 private:
  enum class MsgKind {
    kAcquire,    // local client -> local daemon: run the acquire path
    kRelease,    // local client -> local daemon: drop one user
    kRequest,    // daemon -> master: grant me `mode`
    kReply,      // master -> daemon: granted now, or queued
    kGrant,      // master -> daemon: queued request now granted
    kBast,       // master -> holder: downgrade to `mode`
    kDowngrade,  // holder -> master: done, my mode is now `mode`
    kStop,       // controller -> daemon: exit
  };

  // Client-side completion state for one Acquire, owned by the client
  // coroutine frame; the daemon signals through it.
  struct AcquireState {
    AcquireState(osim::Kernel* kernel, bool master_is_local)
        : reply(kernel, master_is_local ? osprof::kLayerLockWait
                                        : osprof::kLayerNet),
          grant(kernel, osprof::kLayerLockWait) {}
    osim::WaitQueue reply;  // Phase 1: the master's immediate answer.
    osim::WaitQueue grant;  // Phase 2: queued behind a revoke.
    bool replied = false;
    bool granted = false;
  };

  struct Msg {
    MsgKind kind = MsgKind::kStop;
    std::string resource;
    DlmMode mode = DlmMode::kNull;
    int from = -1;               // Originating node.
    AcquireState* ctx = nullptr; // Echoed through kRequest/kReply/kGrant.
    bool granted = false;        // kReply payload.
  };

  // One node's view of a resource it holds (or is acquiring).
  struct CachedRes {
    DlmMode mode = DlmMode::kNull;
    int users = 0;               // Active local acquisitions.
    bool revoke_pending = false; // A BAST asked for `revoke_target`.
    DlmMode revoke_target = DlmMode::kNull;
    bool downgrading = false;    // Flush in progress.
  };

  struct Waiter {
    int node = -1;
    DlmMode mode = DlmMode::kNull;
    AcquireState* ctx = nullptr;  // Only meaningful on the waiter's node.
  };

  // The master's authoritative record of a resource.
  struct MasterRes {
    std::map<int, DlmMode> granted;  // node -> mode currently granted.
    std::deque<Waiter> queue;        // FIFO; no starvation.
    std::set<int> bast_pending;      // Holders already asked to downgrade.
  };

  // Everything one daemon owns.  The inbox itself is scheduler plumbing
  // (push + wake is atomic within one simulated turn); the lock tables
  // are Shared so the race tracker checks the single-daemon-writer
  // discipline.
  struct NodeState {
    NodeState(osim::Kernel& kernel)
        : inbox_wait(&kernel),
          cache(kernel, "dlm.cache"),
          mastered(kernel, "dlm.master") {}
    std::deque<Msg> inbox;
    osim::WaitQueue inbox_wait;
    osim::Shared<std::map<std::string, CachedRes>> cache;
    osim::Shared<std::map<std::string, MasterRes>> mastered;
    DowngradeHook hook;
  };

  osim::Task<void> DaemonLoop(int node);
  osim::Task<void> HandleAcquire(int node, Msg m);
  osim::Task<void> HandleRelease(int node, Msg m);
  osim::Task<void> HandleRequestAtMaster(int node, Msg m);
  osim::Task<void> HandleDowngradeAtMaster(int node, Msg m);
  osim::Task<void> HandleBast(int node, Msg m);

  // Master-side grant decision: grants immediately when `mode` is
  // compatible with every *other* node's grant and nobody is queued;
  // otherwise queues and sends BASTs.  Returns whether it granted.
  bool MasterTryGrant(int master, const std::string& resource, DlmMode mode,
                      int from, AcquireState* ctx);
  // Re-examines the queue after a downgrade arrived; grants in FIFO
  // order while the head stays compatible.
  void MasterPromote(int master, const std::string& resource);
  void SendBasts(int master, const std::string& resource, MasterRes& res);

  // Applies a grant on the owning node's cache and completes the client.
  void ApplyGrant(int node, const std::string& resource, DlmMode mode,
                  AcquireState* ctx);
  // Marks an Acquire complete and wakes the parked client.
  static void ApplyGrantCompleted(AcquireState* ctx);
  osim::Task<void> StartDowngrade(int node, const std::string& resource);

  void PostTo(int node, Msg m);  // Push + wake, any context.
  void SendWire(int from, int to, std::uint32_t bytes,
                const std::string& label, Msg m);

  // Cluster-wide lock identity for the trackers: one stable (pointer,
  // name) pair per resource, shared by every node, so cross-node
  // acquired-while-held edges merge by name in the lock graph.
  std::pair<const void*, const std::string*> Ident(
      const std::string& resource);

  osim::Kernel* kernel_;
  Fabric* fabric_;
  DlmConfig config_;
  std::deque<NodeState> nodes_;
  std::map<std::string, char> idents_;
  std::uint64_t acquires_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t remote_requests_ = 0;
  std::uint64_t queued_waits_ = 0;
  std::uint64_t basts_sent_ = 0;
  std::uint64_t downgrades_ = 0;
};

}  // namespace osnet

#endif  // OSPROF_SRC_NET_DLM_H_
