#include "src/sim/lock_order.h"

#include <algorithm>
#include <functional>
#include <sstream>

#include "src/sim/request_context.h"

namespace osim {

void LockOrderTracker::AcquiredSlow(const void* lock, const std::string& name,
                                    HeldLockStack& held, int thread_id) {
  if (enabled_) {
    // The innermost profiled span of the acquiring thread, resolved once
    // per acquisition from the shared context (no per-Wrap string copies).
    const osprof::OpTable* ops = nullptr;
    osprof::OpId op = osprof::kInvalidOpId;
    osprof::LayerComponent cls = osprof::kLayerSelf;
    const bool in_span = context_ != nullptr && held.depth > 0 &&
                         context_->TopSpan(thread_id, &ops, &op, &cls);
    for (std::uint32_t i = 0; i < held.depth; ++i) {
      const HeldLock& h = held.At(i);
      if (h.lock == lock) {
        // Recursive acquisition of a counted semaphore: same instance, no
        // ordering information.
        continue;
      }
      Edge& e = edges_[{*h.name, name}];
      e.from = *h.name;
      e.to = name;
      ++e.count;
      if (in_span) {
        e.ops.insert(ops->Name(op));
      }
    }
  }
  if (held.depth < HeldLockStack::kInlineDepth) {
    held.frames[held.depth] = HeldLock{lock, &name};
  } else {
    held.spill.push_back(HeldLock{lock, &name});
  }
  ++held.depth;
}

void LockOrderTracker::ReleasedSlow(const void* lock, HeldLockStack& held) {
  // Most-recent first: matches nested acquire/release; out-of-order
  // release still finds its entry.
  for (std::uint32_t i = held.depth; i > 0; --i) {
    if (held.At(i - 1).lock != lock) {
      continue;
    }
    for (std::uint32_t j = i; j < held.depth; ++j) {
      held.At(j - 1) = held.At(j);
    }
    if (held.depth > HeldLockStack::kInlineDepth) {
      held.spill.pop_back();
    }
    --held.depth;
    return;
  }
}

std::vector<LockOrderTracker::Edge> LockOrderTracker::Edges() const {
  std::vector<Edge> out;
  out.reserve(edges_.size());
  for (const auto& [key, edge] : edges_) {
    out.push_back(edge);
  }
  return out;  // Map order: already sorted by (from, to).
}

std::vector<std::vector<std::string>> LockOrderTracker::FindCycles() const {
  // Adjacency over lock names, in deterministic order.
  std::map<std::string, std::vector<std::string>> adj;
  std::set<std::string> self_loops;
  for (const auto& [key, edge] : edges_) {
    adj[edge.from].push_back(edge.to);
    adj[edge.to];  // Ensure the node exists.
    if (edge.from == edge.to) {
      self_loops.insert(edge.from);
    }
  }

  // Tarjan's SCC algorithm, iterative over the recursion with an explicit
  // lambda (graphs here are tiny; recursion depth is not a concern).
  std::map<std::string, int> index;
  std::map<std::string, int> lowlink;
  std::set<std::string> on_stack;
  std::vector<std::string> stack;
  int next_index = 0;
  std::vector<std::vector<std::string>> sccs;

  std::function<void(const std::string&)> strongconnect =
      [&](const std::string& v) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack.insert(v);
        for (const std::string& w : adj[v]) {
          if (index.find(w) == index.end()) {
            strongconnect(w);
            lowlink[v] = std::min(lowlink[v], lowlink[w]);
          } else if (on_stack.count(w) > 0) {
            lowlink[v] = std::min(lowlink[v], index[w]);
          }
        }
        if (lowlink[v] == index[v]) {
          std::vector<std::string> scc;
          while (true) {
            const std::string w = stack.back();
            stack.pop_back();
            on_stack.erase(w);
            scc.push_back(w);
            if (w == v) {
              break;
            }
          }
          if (scc.size() > 1 ||
              (scc.size() == 1 && self_loops.count(scc[0]) > 0)) {
            std::sort(scc.begin(), scc.end());
            sccs.push_back(std::move(scc));
          }
        }
      };
  for (const auto& [node, targets] : adj) {
    if (index.find(node) == index.end()) {
      strongconnect(node);
    }
  }
  std::sort(sccs.begin(), sccs.end());
  return sccs;
}

std::vector<LockOrderTracker::Edge> LockOrderTracker::Inversions() const {
  std::vector<Edge> out;
  for (const auto& [key, edge] : edges_) {
    if (edge.from >= edge.to) {
      continue;  // Report each unordered pair once.
    }
    const auto reverse = edges_.find({edge.to, edge.from});
    if (reverse == edges_.end()) {
      continue;
    }
    Edge merged = edge;
    merged.count += reverse->second.count;
    merged.ops.insert(reverse->second.ops.begin(), reverse->second.ops.end());
    out.push_back(std::move(merged));
  }
  return out;
}

std::vector<std::string> LockOrderTracker::CycleDescriptions() const {
  std::vector<std::string> out;
  for (const std::vector<std::string>& cycle : FindCycles()) {
    // Ops from every edge internal to the cycle.
    std::set<std::string> in_cycle(cycle.begin(), cycle.end());
    std::set<std::string> ops;
    for (const auto& [key, edge] : edges_) {
      if (in_cycle.count(edge.from) > 0 && in_cycle.count(edge.to) > 0) {
        ops.insert(edge.ops.begin(), edge.ops.end());
      }
    }
    std::ostringstream os;
    for (const std::string& lock : cycle) {
      os << lock << " -> ";
    }
    os << cycle.front();
    if (!ops.empty()) {
      os << " (ops:";
      for (const std::string& op : ops) {
        os << " " << op;
      }
      os << ")";
    }
    out.push_back(os.str());
  }
  return out;
}

std::string LockOrderTracker::Report() const {
  std::ostringstream os;
  os << "lock-order edges:\n";
  for (const Edge& e : Edges()) {
    os << "  " << e.from << " -> " << e.to << " x" << e.count;
    if (!e.ops.empty()) {
      os << " (ops:";
      for (const std::string& op : e.ops) {
        os << " " << op;
      }
      os << ")";
    }
    os << "\n";
  }
  const std::vector<std::string> cycles = CycleDescriptions();
  if (cycles.empty()) {
    os << "no deadlock-capable cycles\n";
  } else {
    os << "DEADLOCK-CAPABLE cycles:\n";
    for (const std::string& c : cycles) {
      os << "  " << c << "\n";
    }
  }
  return os.str();
}

void LockOrderTracker::Reset() { edges_.clear(); }

}  // namespace osim
