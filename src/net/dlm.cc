#include "src/net/dlm.h"

#include <stdexcept>
#include <utility>

namespace osnet {

namespace {

DlmMode MaxMode(DlmMode a, DlmMode b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

DlmMode MinMode(DlmMode a, DlmMode b) {
  return static_cast<int>(a) <= static_cast<int>(b) ? a : b;
}

bool AtLeast(DlmMode held, DlmMode wanted) {
  return static_cast<int>(held) >= static_cast<int>(wanted);
}

}  // namespace

bool DlmCompatible(DlmMode a, DlmMode b) {
  if (a == DlmMode::kNull || b == DlmMode::kNull) {
    return true;
  }
  return a == DlmMode::kProtectedRead && b == DlmMode::kProtectedRead;
}

Dlm::Dlm(osim::Kernel* kernel, Fabric* fabric, DlmConfig config)
    : kernel_(kernel), fabric_(fabric), config_(config) {
  for (int n = 0; n < fabric->num_nodes(); ++n) {
    nodes_.emplace_back(*kernel);
  }
}

void Dlm::SetDowngradeHook(int node, DowngradeHook hook) {
  nodes_[static_cast<std::size_t>(node)].hook = std::move(hook);
}

void Dlm::Start() {
  for (int n = 0; n < static_cast<int>(nodes_.size()); ++n) {
    kernel_->SpawnOn(n, "dlmd" + std::to_string(n), DaemonLoop(n));
  }
}

void Dlm::Shutdown() {
  for (int n = 0; n < static_cast<int>(nodes_.size()); ++n) {
    PostTo(n, Msg{MsgKind::kStop, "", DlmMode::kNull, n, nullptr, false});
  }
}

int Dlm::MasterOf(const std::string& resource) const {
  // FNV-1a: committed goldens depend on the placement, so no std::hash.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : resource) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return static_cast<int>(h % nodes_.size());
}

std::pair<const void*, const std::string*> Dlm::Ident(
    const std::string& resource) {
  const auto it = idents_.try_emplace("dlm:" + resource, '\0').first;
  return {static_cast<const void*>(&it->second), &it->first};
}

void Dlm::PostTo(int node, Msg m) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  ns.inbox.push_back(std::move(m));
  ns.inbox_wait.WakeOne();
}

void Dlm::SendWire(int from, int to, std::uint32_t bytes,
                   const std::string& label, Msg m) {
  // Same-node sends short-circuit inside the fabric; either way the
  // message lands in the target daemon's inbox, so every table mutation
  // stays in daemon context.
  fabric_->Send(from, to, bytes, PacketKind::kRequest, label,
                [this, to, m = std::move(m)]() mutable {
                  PostTo(to, std::move(m));
                });
}

osim::Task<void> Dlm::DaemonLoop(int node) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  for (;;) {
    if (ns.inbox.empty()) {
      co_await ns.inbox_wait.Wait();
      continue;
    }
    Msg m = std::move(ns.inbox.front());
    ns.inbox.pop_front();
    if (m.kind == MsgKind::kStop) {
      break;
    }
    co_await kernel_->Cpu(config_.service_cpu);
    switch (m.kind) {
      case MsgKind::kAcquire:
        co_await HandleAcquire(node, std::move(m));
        break;
      case MsgKind::kRelease:
        co_await HandleRelease(node, std::move(m));
        break;
      case MsgKind::kRequest:
        co_await HandleRequestAtMaster(node, std::move(m));
        break;
      case MsgKind::kReply:
        if (m.granted) {
          ApplyGrant(node, m.resource, m.mode, m.ctx);
        } else {
          ++queued_waits_;
          m.ctx->replied = true;
          m.ctx->reply.WakeAll();
        }
        break;
      case MsgKind::kGrant:
        ApplyGrant(node, m.resource, m.mode, m.ctx);
        break;
      case MsgKind::kBast:
        co_await HandleBast(node, std::move(m));
        break;
      case MsgKind::kDowngrade:
        co_await HandleDowngradeAtMaster(node, std::move(m));
        break;
      case MsgKind::kStop:
        break;
    }
  }
}

osim::Task<void> Dlm::Acquire(const std::string& resource, DlmMode mode) {
  osim::SimThread* self = kernel_->current();
  if (self == nullptr) {
    throw std::logic_error("Dlm::Acquire outside thread context");
  }
  if (mode == DlmMode::kNull) {
    throw std::invalid_argument("Dlm::Acquire: NL is not an acquirable mode");
  }
  const int node = self->node();
  ++acquires_;
  co_await kernel_->Cpu(config_.request_cpu);
  AcquireState st(kernel_, MasterOf(resource) == node);
  PostTo(node, Msg{MsgKind::kAcquire, resource, mode, node, &st, false});
  while (!st.replied) {
    co_await st.reply.Wait();
  }
  while (!st.granted) {
    co_await st.grant.Wait();
  }
  const auto [id, name] = Ident(resource);
  kernel_->NoteLockAcquired(id, *name);
}

void Dlm::Release(const std::string& resource, DlmMode mode) {
  osim::SimThread* self = kernel_->current();
  if (self == nullptr) {
    throw std::logic_error("Dlm::Release outside thread context");
  }
  const auto [id, name] = Ident(resource);
  (void)name;
  kernel_->NoteLockReleased(id);
  PostTo(self->node(),
         Msg{MsgKind::kRelease, resource, mode, self->node(), nullptr, false});
}

osim::Task<void> Dlm::HandleAcquire(int node, Msg m) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  {
    auto& cache = OSIM_SHARED_RW(ns.cache);
    CachedRes& r = cache[m.resource];
    if (!r.revoke_pending && !r.downgrading && AtLeast(r.mode, m.mode)) {
      ++r.users;
      ++cache_hits_;
      ApplyGrantCompleted(m.ctx);
      co_return;
    }
  }
  const int master = MasterOf(m.resource);
  if (master == node) {
    if (MasterTryGrant(node, m.resource, m.mode, node, m.ctx)) {
      ApplyGrant(node, m.resource, m.mode, m.ctx);
    } else {
      ++queued_waits_;
      m.ctx->replied = true;
      m.ctx->reply.WakeAll();
    }
  } else {
    ++remote_requests_;
    SendWire(node, master, config_.request_bytes, "dlm.request",
             Msg{MsgKind::kRequest, m.resource, m.mode, node, m.ctx, false});
  }
}

osim::Task<void> Dlm::HandleRequestAtMaster(int node, Msg m) {
  const bool granted =
      MasterTryGrant(node, m.resource, m.mode, m.from, m.ctx);
  SendWire(node, m.from, config_.reply_bytes, "dlm.reply",
           Msg{MsgKind::kReply, m.resource, m.mode, node, m.ctx, granted});
  co_return;
}

osim::Task<void> Dlm::HandleRelease(int node, Msg m) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  bool downgrade_now = false;
  {
    auto& cache = OSIM_SHARED_RW(ns.cache);
    CachedRes& r = cache[m.resource];
    --r.users;
    downgrade_now = r.users == 0 && r.revoke_pending && !r.downgrading;
  }
  if (downgrade_now) {
    co_await StartDowngrade(node, m.resource);
  }
}

osim::Task<void> Dlm::HandleDowngradeAtMaster(int node, Msg m) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  {
    auto& tbl = OSIM_SHARED_RW(ns.mastered);
    MasterRes& r = tbl[m.resource];
    if (m.mode == DlmMode::kNull) {
      r.granted.erase(m.from);
    } else {
      r.granted[m.from] = m.mode;
    }
    r.bast_pending.erase(m.from);
  }
  MasterPromote(node, m.resource);
  co_return;
}

osim::Task<void> Dlm::HandleBast(int node, Msg m) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  bool downgrade_now = false;
  {
    auto& cache = OSIM_SHARED_RW(ns.cache);
    CachedRes& r = cache[m.resource];
    if (r.revoke_pending) {
      r.revoke_target = MinMode(r.revoke_target, m.mode);
    } else {
      r.revoke_pending = true;
      r.revoke_target = m.mode;
    }
    if (AtLeast(r.revoke_target, r.mode)) {
      // Already at or below the target (our downgrade crossed the BAST on
      // the wire): acknowledge with the current mode.
      r.revoke_pending = false;
      SendWire(node, MasterOf(m.resource), config_.downgrade_bytes,
               "dlm.downgrade",
               Msg{MsgKind::kDowngrade, m.resource, r.mode, node, nullptr,
                   false});
      co_return;
    }
    downgrade_now = r.users == 0 && !r.downgrading;
  }
  if (downgrade_now) {
    co_await StartDowngrade(node, m.resource);
  }
}

bool Dlm::MasterTryGrant(int master, const std::string& resource,
                         DlmMode mode, int from, AcquireState* ctx) {
  auto& tbl =
      OSIM_SHARED_RW(nodes_[static_cast<std::size_t>(master)].mastered);
  MasterRes& r = tbl[resource];
  bool ok = r.queue.empty();  // FIFO: never overtake a queued waiter.
  if (ok) {
    for (const auto& [n, g] : r.granted) {
      if (n != from && !DlmCompatible(g, mode)) {
        ok = false;
        break;
      }
    }
  }
  if (ok) {
    DlmMode& g = r.granted[from];
    g = MaxMode(g, mode);
    return true;
  }
  r.queue.push_back(Waiter{from, mode, ctx});
  SendBasts(master, resource, r);
  return false;
}

void Dlm::MasterPromote(int master, const std::string& resource) {
  auto& tbl =
      OSIM_SHARED_RW(nodes_[static_cast<std::size_t>(master)].mastered);
  const auto it = tbl.find(resource);
  if (it == tbl.end()) {
    return;
  }
  MasterRes& r = it->second;
  while (!r.queue.empty()) {
    const Waiter w = r.queue.front();
    bool ok = true;
    for (const auto& [n, g] : r.granted) {
      if (n != w.node && !DlmCompatible(g, w.mode)) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      SendBasts(master, resource, r);
      break;
    }
    r.queue.pop_front();
    DlmMode& g = r.granted[w.node];
    g = MaxMode(g, w.mode);
    if (w.node == master) {
      ApplyGrant(master, resource, w.mode, w.ctx);
    } else {
      SendWire(master, w.node, config_.grant_bytes, "dlm.grant",
               Msg{MsgKind::kGrant, resource, w.mode, master, w.ctx, true});
    }
  }
}

void Dlm::SendBasts(int master, const std::string& resource, MasterRes& res) {
  const Waiter& head = res.queue.front();
  const DlmMode target = head.mode == DlmMode::kExclusive
                             ? DlmMode::kNull
                             : DlmMode::kProtectedRead;
  for (const auto& [n, g] : res.granted) {
    if (n == head.node || DlmCompatible(g, head.mode)) {
      continue;
    }
    if (res.bast_pending.insert(n).second) {
      ++basts_sent_;
      SendWire(master, n, config_.bast_bytes, "dlm.bast",
               Msg{MsgKind::kBast, resource, target, master, nullptr, false});
    }
  }
}

void Dlm::ApplyGrant(int node, const std::string& resource, DlmMode mode,
                     AcquireState* ctx) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  auto& cache = OSIM_SHARED_RW(ns.cache);
  CachedRes& r = cache[resource];
  r.mode = MaxMode(r.mode, mode);
  ++r.users;
  ApplyGrantCompleted(ctx);
}

void Dlm::ApplyGrantCompleted(AcquireState* ctx) {
  ctx->replied = true;
  ctx->granted = true;
  ctx->reply.WakeAll();
  ctx->grant.WakeAll();
}

osim::Task<void> Dlm::StartDowngrade(int node, const std::string& resource) {
  NodeState& ns = nodes_[static_cast<std::size_t>(node)];
  DlmMode held = DlmMode::kNull;
  DlmMode target = DlmMode::kNull;
  {
    auto& cache = OSIM_SHARED_RW(ns.cache);
    CachedRes& r = cache[resource];
    r.downgrading = true;
    held = r.mode;
    target = r.revoke_target;
  }
  if (held == DlmMode::kExclusive && ns.hook) {
    // Surrendering EX publishes our writes: flush before the master may
    // grant anyone else.  The master cannot re-grant us meanwhile -- the
    // waiter that triggered the BAST stays queued until our downgrade
    // lands -- so the cache entry is stable across this await.
    co_await ns.hook(resource);
  }
  {
    auto& cache = OSIM_SHARED_RW(ns.cache);
    if (target == DlmMode::kNull) {
      cache.erase(resource);
    } else {
      CachedRes& r = cache[resource];
      r.mode = target;
      r.downgrading = false;
      r.revoke_pending = false;
    }
  }
  ++downgrades_;
  SendWire(node, MasterOf(resource), config_.downgrade_bytes, "dlm.downgrade",
           Msg{MsgKind::kDowngrade, resource, target, node, nullptr, false});
}

}  // namespace osnet
