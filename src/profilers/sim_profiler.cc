#include "src/profilers/sim_profiler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/core/clock.h"
#include "src/core/histogram.h"

namespace osprofilers {

void SimProfiler::EnableSampling(Cycles epoch_cycles) {
  sampling_epoch_ = epoch_cycles;
  sampled_ = std::make_unique<osprof::SampledProfileSet>(epoch_cycles,
                                                         resolution_);
  std::fill(sampled_slots_.begin(), sampled_slots_.end(), nullptr);
}

osprof::ProbeHandle SimProfiler::Resolve(std::string_view op) {
  const osprof::ProbeHandle handle = profiles_.Resolve(op);
  if (correlators_.size() < profiles_.ops().size()) {
    correlators_.resize(profiles_.ops().size(), nullptr);
    sampled_slots_.resize(profiles_.ops().size(), nullptr);
    layered_slots_.resize(profiles_.ops().size(), nullptr);
    if (shards_raw_ != nullptr) {
      shards_raw_->OnResolve(op);
    }
  }
  return handle;
}

osprof::ProfileSet SimProfiler::Collect() const {
  osprof::ProfileSet out = profiles_;
  if (shards_raw_ != nullptr) {
    shards_raw_->MergeResidueInto(&out);
  }
  return out;
}

const osprof::LayeredProfileSet* SimProfiler::layered() const {
  if (shards_raw_ == nullptr) {
    return &layered_;
  }
  layered_snapshot_ = layered_;
  shards_raw_->MergeLayeredResidueInto(&layered_snapshot_);
  return &layered_snapshot_;
}

void SimProfiler::EnableSharding(Cycles epoch_cycles) {
  shards_ = std::make_unique<ShardedProfileArena>(
      &profiles_, &layered_, kernel_->config().num_cpus);
  shards_raw_ = shards_.get();
  shard_epoch_ = epoch_cycles;
  next_epoch_flush_ = epoch_cycles > 0 ? kernel_->now() + epoch_cycles : 0;
}

osprof::LayerComponent SimProfiler::ComponentForLayer(
    const std::string& layer) {
  if (layer == "fs") {
    return osprof::kLayerFs;
  }
  if (layer == "driver") {
    return osprof::kLayerDriver;
  }
  if (layer == "net" || layer == "cifs" || layer == "nfs") {
    return osprof::kLayerNet;
  }
  return osprof::kLayerSelf;  // "user" and friends: transparent.
}

osprof::LayeredProfile* SimProfiler::LayeredSlot(osprof::ProbeHandle op) {
  osprof::LayeredProfile*& slot =
      layered_slots_[static_cast<std::size_t>(op.id())];
  slot = layered_.Slot(profiles_.ops().Name(op.id()));
  return slot;
}

void SimProfiler::AttachCorrelator(std::string_view op,
                                   osprof::ValueCorrelator* c) {
  const osprof::ProbeHandle handle = Resolve(op);
  correlators_[static_cast<std::size_t>(handle.id())] = c;
}

Task<void> SimProfiler::ChargedExit(osprof::ProbeHandle op, int tid,
                                    Cycles start, const std::uint64_t* value) {
  if (costs_.InsidePost() > 0) {
    co_await kernel_->Cpu(costs_.InsidePost());
  }
  osprof::ClockSample exit = kernel_->SampleClocks();
  if (costs_.OutsidePost() > 0) {
    co_await kernel_->Cpu(costs_.OutsidePost());
    exit.now = kernel_->now();
  }
  const Cycles latency = exit.tsc >= start ? exit.tsc - start : 0;
  FinishSpan(op, tid, latency, exit.now, value);
}

void SimProfiler::RecordCallEdge(osprof::OpId caller,
                                 osprof::ProbeHandle callee, Cycles latency) {
  const auto [it, first_call] =
      edge_ids_.try_emplace({caller, callee.id()}, osprof::kInvalidOpId);
  if (first_call) {
    const osprof::OpTable& ops = profiles_.ops();
    const std::string name = ops.Name(caller) + "->" + ops.Name(callee.id());
    it->second = edges_.Resolve(name).id();
  }
  edges_.AddById(it->second, latency);
}

std::vector<SimProfiler::EdgeSummary> SimProfiler::EdgeSummaries() const {
  // An op's calls are either nested under a caller of this profiler (an
  // edge) or top-level, so its top-level row is its flat profile minus
  // its incoming edges.
  const osprof::ProfileSet flat = Collect();
  const osprof::OpTable& ops = flat.ops();
  std::vector<EdgeSummary> top(ops.size());
  for (osprof::OpId op = 0; op < ops.size(); ++op) {
    const osprof::Profile& profile = flat.ById(op);
    top[op] = {"-", ops.Name(op), profile.total_operations(),
               profile.total_latency()};
  }
  std::vector<EdgeSummary> out;
  for (const auto& [ends, id] : edge_ids_) {
    const auto& [caller, callee] = ends;
    const osprof::Profile& edge = edges_.ById(id);
    top[callee].calls -= edge.total_operations();
    top[callee].total_latency -= edge.total_latency();
    out.push_back({ops.Name(caller), ops.Name(callee),
                   edge.total_operations(), edge.total_latency()});
  }
  out.insert(out.end(), top.begin(), top.end());
  std::erase_if(out, [](const EdgeSummary& e) { return e.calls == 0; });
  std::sort(out.begin(), out.end(),
            [](const EdgeSummary& a, const EdgeSummary& b) {
              if (a.total_latency != b.total_latency) {
                return a.total_latency > b.total_latency;
              }
              return a.caller != b.caller ? a.caller < b.caller
                                          : a.callee < b.callee;
            });
  return out;
}

std::string SimProfiler::CallGraphReport(double cpu_hz) const {
  const auto seconds = [cpu_hz](Cycles cycles) {
    return osprof::FormatSeconds(static_cast<double>(cycles) / cpu_hz);
  };
  const osprof::ProfileSet flat = Collect();
  const std::vector<EdgeSummary> edges = EdgeSummaries();
  std::ostringstream os;
  os << "call-graph profile (gprof-style)\n";
  os << "  operation        calls        total        self       children\n";
  for (const std::string& op : flat.ByTotalLatency()) {
    const osprof::Profile* p = flat.Find(op);
    const Cycles total = p->total_latency();
    // Time in profiled children is what the op's outgoing edges recorded.
    Cycles children = 0;
    for (const EdgeSummary& e : edges) {
      children += e.caller == op ? e.total_latency : 0;
    }
    const Cycles self = total > children ? total - children : 0;
    char line[160];
    std::snprintf(line, sizeof(line), "  %-16s %-12llu %-12s %-12s %-12s\n",
                  op.c_str(),
                  static_cast<unsigned long long>(p->total_operations()),
                  seconds(total).c_str(), seconds(self).c_str(),
                  seconds(children).c_str());
    os << line;
  }
  os << "  edges (heaviest first):\n";
  for (const EdgeSummary& e : edges) {
    char line[160];
    std::snprintf(line, sizeof(line), "    %s -> %s: %llu calls, %s\n",
                  e.caller.c_str(), e.callee.c_str(),
                  static_cast<unsigned long long>(e.calls),
                  seconds(e.total_latency).c_str());
    os << line;
  }
  return os.str();
}

void SimProfiler::SampledRecord(osprof::ProbeHandle op, Cycles latency) {
  osprof::SampledProfile*& slot =
      sampled_slots_[static_cast<std::size_t>(op.id())];
  if (slot == nullptr) {
    slot = sampled_->Slot(profiles_.ops().Name(op.id()));
  }
  slot->Add(kernel_->now(), latency);
}

void SimProfiler::Reset() {
  profiles_.ClearCounts();
  layered_.ClearCounts();  // In place: cached layered_slots_ stay valid.
  edges_.ClearCounts();    // In place: edge_ids_ stay valid.
  if (shards_raw_ != nullptr) {
    shards_raw_->ClearCounts();
    next_epoch_flush_ =
        shard_epoch_ > 0 ? kernel_->now() + shard_epoch_ : 0;
  }
  if (sampled_ != nullptr) {
    sampled_ = std::make_unique<osprof::SampledProfileSet>(sampling_epoch_,
                                                           resolution_);
    std::fill(sampled_slots_.begin(), sampled_slots_.end(), nullptr);
  }
}

DriverProfiler::DriverProfiler(Kernel* kernel, SimDisk* disk, int resolution)
    : profiler_(kernel, resolution) {
  // Pre-resolve the four disk keys once; the observer fires per request
  // and must not rebuild std::string keys on that path.
  const osprof::ProbeHandle read = profiler_.Resolve("disk_read");
  const osprof::ProbeHandle write = profiler_.Resolve("disk_write");
  const osprof::ProbeHandle read_queue = profiler_.Resolve("disk_read_queue");
  const osprof::ProbeHandle write_queue =
      profiler_.Resolve("disk_write_queue");
  disk->SetRequestObserver([this, read, write, read_queue,
                            write_queue](const osim::DiskRequestInfo& info) {
    const bool is_read = info.op == osim::DiskOp::kRead;
    profiler_.Record(is_read ? read : write, info.total_latency());
    profiler_.Record(is_read ? read_queue : write_queue,
                     info.queue_latency());
  });
}

}  // namespace osprofilers
