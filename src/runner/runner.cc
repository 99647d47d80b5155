#include "src/runner/runner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <variant>

#include "src/core/clock.h"
#include "src/core/histogram.h"
#include "src/core/parse_number.h"
#include "src/core/peaks.h"
#include "src/core/preemption.h"
#include "src/net/fabric.h"
#include "src/net/nfs.h"
#include "src/profilers/noise_profiler.h"
#include "src/profilers/profiler_sink.h"
#include "src/profilers/sim_profiler.h"
#include "src/sim/sync.h"
#include "src/workloads/cluster_clients.h"

namespace osrunner {
namespace {

// Lower median of an unsorted column (consistent with cluster.cc's outlier
// consensus).
std::uint64_t LowerMedian(std::vector<std::uint64_t> values) {
  const std::size_t mid = (values.size() - 1) / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  return values[mid];
}

std::vector<OpDispersion> ComputeDispersion(
    const osprof::ProfileSet& merged, const std::vector<TrialResult>& trials,
    const std::string& layer) {
  std::vector<OpDispersion> out;
  for (const std::string& op : merged.OperationNames()) {
    const osprof::Histogram& mh = merged.Find(op)->histogram();
    OpDispersion d;
    d.op = op;
    d.first_bucket = mh.FirstNonEmpty();
    d.last_bucket = mh.LastNonEmpty();

    // Per-trial histograms for this operation (absent -> empty).
    std::vector<const osprof::Histogram*> per_trial;
    per_trial.reserve(trials.size());
    for (const TrialResult& t : trials) {
      const auto it = t.layers.find(layer);
      const osprof::Profile* p =
          it == t.layers.end() ? nullptr : it->second.Find(op);
      per_trial.push_back(p == nullptr ? nullptr : &p->histogram());
    }

    if (d.first_bucket >= 0) {
      const int width = d.last_bucket - d.first_bucket + 1;
      d.min_count.resize(static_cast<std::size_t>(width));
      d.median_count.resize(static_cast<std::size_t>(width));
      d.max_count.resize(static_cast<std::size_t>(width));
      std::vector<std::uint64_t> column(trials.size());
      for (int b = d.first_bucket; b <= d.last_bucket; ++b) {
        for (std::size_t t = 0; t < per_trial.size(); ++t) {
          column[t] = per_trial[t] == nullptr ? 0 : per_trial[t]->bucket(b);
        }
        const std::size_t i = static_cast<std::size_t>(b - d.first_bucket);
        d.min_count[i] = *std::min_element(column.begin(), column.end());
        d.max_count[i] = *std::max_element(column.begin(), column.end());
        d.median_count[i] = LowerMedian(column);
      }
    }

    // Peak stability across trials.
    std::map<int, int> peak_counts;
    for (const osprof::Histogram* h : per_trial) {
      const int n =
          h == nullptr ? 0 : static_cast<int>(osprof::FindPeaks(*h).size());
      ++peak_counts[n];
    }
    for (const auto& [n, occurrences] : peak_counts) {
      // Highest occurrence wins; ties resolve to the smaller peak count
      // (map order), keeping the report deterministic.
      if (occurrences > d.stable_peak_trials) {
        d.stable_peak_trials = occurrences;
        d.modal_peak_count = n;
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace

std::optional<int> ParseInt(std::string_view token) {
  return osprof::ParseNumber<int>(token);
}

std::uint64_t RunResult::TotalCounter(const std::string& name) const {
  std::uint64_t sum = 0;
  for (const TrialResult& t : trials) {
    const auto it = t.counters.find(name);
    if (it != t.counters.end()) {
      sum += it->second;
    }
  }
  return sum;
}

std::vector<std::string> RunResult::LockCycles() const {
  std::set<std::string> unique;
  for (const TrialResult& t : trials) {
    unique.insert(t.lock_cycles.begin(), t.lock_cycles.end());
  }
  return {unique.begin(), unique.end()};
}

std::vector<std::string> RunResult::RaceReports() const {
  std::set<std::string> unique;
  for (const TrialResult& t : trials) {
    unique.insert(t.race_reports.begin(), t.race_reports.end());
  }
  return {unique.begin(), unique.end()};
}

namespace {

// One trial's fully private simulated machine: the part every workload
// shares.  Trials share nothing, so they can run on concurrent host
// threads.  Each workload's Drive() builds its own state in its own scope,
// calls Run() once, then writes its counters while that state is alive.
struct Trial {
  Trial(const Scenario& spec, int trial);

  std::uint64_t& counter(const char* name) { return result.counters[name]; }

  // Records through the SimProfiler under the workload's own layer tag
  // (its syscall boundary, or a client-side mount).
  void ProfileAs(const char* layer) {
    profiler.set_layer(layer);
    sinks.push_back(&profiler);
  }

  // In-FS instrumentation: the FoSgen-style SimProfiler at the FS
  // boundary.
  void AttachFsInstrumentation() {
    if (scenario.profilers.fs) {
      fs.SetProfiler(&profiler);
      sinks.push_back(&profiler);
    }
  }

  // The step every workload shares: runs the machine until its threads
  // finish, then collects every sink plus the kernel and race counters.
  void Run();

  const Scenario& scenario;
  TrialResult result;
  osim::Kernel kernel;
  osim::SimDisk disk;
  osfs::Ext2SimFs fs;
  osprofilers::SimProfiler profiler;
  std::optional<osprofilers::DriverProfiler> driver;
  std::vector<osprofilers::ProfilerSink*> sinks;
};

osim::KernelConfig TrialKernel(const Scenario& spec, int trial) {
  osim::KernelConfig config = spec.kernel;
  config.seed += static_cast<std::uint64_t>(trial);
  return config;
}

Trial::Trial(const Scenario& spec, int trial)
    : scenario(spec),
      kernel(TrialKernel(spec, trial)),
      disk(&kernel, spec.disk),
      fs(&kernel, &disk, spec.fs),
      profiler(&kernel) {
  result.trial = trial;
  result.seed = kernel.config().seed;
  // Lock-order analysis rides along on every trial: tracking consumes no
  // simulated time, so profiles are byte-identical with it on.
  kernel.lock_order().set_enabled(true);
  // SimRace happens-before tracking: same zero-simulated-time contract
  // (src/sim/race_tracker.h); scale scenarios opt out via the spec.
  kernel.races().set_enabled(spec.track_races);
  if (spec.profilers.driver) {
    driver.emplace(&kernel, &disk);
  }
}

void Trial::Run() {
  if (driver.has_value()) {
    sinks.push_back(&*driver);
  }
  // Per-CPU sharded recording: enabling after all probes attach is fine --
  // existing ops are replayed into the shards and later Resolve() calls
  // propagate, so the order is immaterial to the serialized output.
  if (scenario.profilers.per_cpu_shards) {
    profiler.EnableSharding(scenario.profilers.shard_epoch);
  }

  kernel.RunUntilThreadsFinish();

  result.sim_cycles = kernel.now();
  for (const osprofilers::ProfilerSink* sink : sinks) {
    result.layers.emplace(sink->layer(), sink->Collect());
    const osprof::LayeredProfileSet* layered = sink->layered();
    if (layered != nullptr && !layered->empty()) {
      result.layered.emplace(sink->layer(), *layered);
    }
  }

  counter("context_switches") = kernel.context_switches();
  counter("timer_interrupts") = kernel.timer_interrupts_delivered();
  counter("forced_preemptions") = kernel.total_forced_preemptions();
  result.lock_cycles = kernel.lock_order().CycleDescriptions();
  if (scenario.track_races) {
    const osim::RaceTracker& races = kernel.races();
    result.race_reports = races.ReportDescriptions();
    counter("race_reports") = races.report_count();
    counter("race_racy_accesses") = races.racy_accesses();
    counter("race_accesses_checked") = races.accesses_checked();
    counter("race_cells_tracked") = races.cells_tracked();
  }
}

void CountLock(Trial& t, const osim::SimSemaphore& lock) {
  t.counter("acquisitions") = lock.acquisitions();
  t.counter("contended_acquisitions") = lock.contended_acquisitions();
}

void Drive(Trial& t, const GrepSpec& grep) {
  osworkloads::BuildSourceTree(&t.fs, grep.root, grep.tree);
  std::vector<osworkloads::GrepStats> stats(
      static_cast<std::size_t>(grep.processes));
  const auto run_greps = [&](osfs::Vfs* target) {
    for (int p = 0; p < grep.processes; ++p) {
      t.kernel.Spawn("grep" + std::to_string(p),
                     osworkloads::GrepWorkload(
                         &t.kernel, target, grep.root, grep.per_byte_cpu,
                         &stats[static_cast<std::size_t>(p)]));
    }
    t.Run();
  };
  // A remote mount exports t.fs and records under its client-side layer
  // (what Figure 10 profiles).  The counters are written outside the
  // profiler's branch, so a run without it reports the same ones.
  const auto run_remote = [&](osnet::RemoteMount& mount, const char* layer) {
    if (t.scenario.profilers.fs) {
      t.ProfileAs(layer);
      mount.SetProfiler(&t.profiler);
    }
    run_greps(&mount);
  };
  switch (grep.mount) {
    case GrepSpec::Mount::kLocal:
      t.AttachFsInstrumentation();
      run_greps(&t.fs);
      break;
    case GrepSpec::Mount::kCifs: {
      osnet::CifsMount cifs(&t.kernel, &t.fs, grep.cifs);
      run_remote(cifs, "cifs");
      t.counter("delayed_acks") =
          cifs.client_ack_policy().delayed_acks_fired();
      t.counter("server_requests") = cifs.server_requests();
      break;
    }
    case GrepSpec::Mount::kNfs: {
      osnet::NfsMount nfs(&t.kernel, &t.fs, osnet::NfsConfig{});
      run_remote(nfs, "nfs");
      t.counter("server_requests") = nfs.rpcs_sent();
      break;
    }
  }
  for (const osworkloads::GrepStats& s : stats) {
    t.counter("files_read") += s.files_read;
    t.counter("directories_visited") += s.directories_visited;
    t.counter("bytes_read") += s.bytes_read;
  }
}

void Drive(Trial& t, const ZeroByteReadSpec& probe) {
  t.fs.AddFile(probe.path, probe.file_bytes);
  t.AttachFsInstrumentation();
  for (int p = 0; p < probe.processes; ++p) {
    t.kernel.Spawn("proc" + std::to_string(p),
                   osworkloads::ZeroByteReadWorkload(
                       &t.kernel, &t.fs, probe.path, probe.requests,
                       probe.user_cycles));
  }
  t.Run();
}

void Drive(Trial& t, const RandomReadSpec& rr) {
  t.fs.AddFile(rr.path, rr.file_bytes);
  t.AttachFsInstrumentation();
  for (int p = 0; p < rr.processes; ++p) {
    t.kernel.Spawn("proc" + std::to_string(p),
                   osworkloads::RandomReadWorkload(
                       &t.kernel, &t.fs, rr.path, rr.iterations,
                       t.result.seed +
                           1'000'003u * static_cast<std::uint64_t>(p)));
  }
  t.Run();
}

void Drive(Trial& t, const CloneSpec& clone) {
  // Syscall-boundary recording, like the paper's user-level profiler.
  t.ProfileAs("user");
  osim::SimSemaphore proc_table(&t.kernel, 1, "proc_table");
  for (int p = 0; p < clone.processes; ++p) {
    t.kernel.Spawn("proc" + std::to_string(p),
                   osworkloads::CloneWorkload(
                       &t.kernel, &proc_table, &t.profiler, clone.iterations,
                       clone.lock_free_cpu, clone.locked_cpu,
                       clone.user_think_cpu));
  }
  t.Run();
  CountLock(t, proc_table);
}

void Drive(Trial& t, const PostmarkSpec& pm) {
  osworkloads::PostmarkConfig config = pm.config;
  config.seed += static_cast<std::uint64_t>(t.result.trial);
  t.fs.AddDir(config.directory);
  t.AttachFsInstrumentation();
  osworkloads::PostmarkStats stats;
  t.kernel.Spawn("postmark", osworkloads::PostmarkWorkload(&t.kernel, &t.fs,
                                                           config, &stats));
  t.Run();
  t.counter("creates") = stats.creates;
  t.counter("deletes") = stats.deletes;
  t.counter("reads") = stats.reads;
  t.counter("appends") = stats.appends;
}

void Drive(Trial& t, const TrafficSpec& traffic) {
  osworkloads::TrafficConfig config = traffic.config;
  config.seed += static_cast<std::uint64_t>(t.result.trial);
  osworkloads::CreateTrafficFiles(&t.fs, config);
  t.AttachFsInstrumentation();
  osworkloads::TrafficStats stats;
  t.kernel.Spawn("traffic", osworkloads::OpenLoopTraffic(&t.kernel, &t.fs,
                                                         config, &stats));
  t.Run();
  t.counter("sessions") = stats.sessions_finished;
  t.counter("requests") = stats.requests_completed;
  t.counter("reads") = stats.reads;
  t.counter("writes") = stats.writes;
  t.counter("bytes_read") = stats.bytes_read;
  t.counter("bytes_written") = stats.bytes_written;
  t.counter("peak_live_sessions") = stats.peak_live_sessions;
  // The kernel's own memory accounting, so scale benches can check the
  // simulator heap without host RSS noise.
  const osim::KernelMemoryStats mem = t.kernel.MemoryStats();
  t.counter("spawned_threads") = mem.spawned_threads;
  t.counter("reaped_threads") = mem.reaped_threads;
  t.counter("run_queue_peak") = mem.run_queue_peak_depth;
  t.counter("sim_heap_bytes") = mem.TotalBytes();
  if (t.scenario.profilers.per_cpu_shards && t.profiler.shards() != nullptr) {
    t.counter("shard_flushes") = t.profiler.shards()->flushes();
  }
}

void Drive(Trial& t, const NoiseSpec& ns) {
  // The noise profiler subscribes to the kernel's interference channel;
  // its tasks are the workload.
  osprofilers::NoiseProfiler noise(&t.kernel);
  for (int i = 0; i < ns.tasks; ++i) {
    t.kernel.Spawn("noise" + std::to_string(i),
                   noise.NoiseTask(i, ns.samples, ns.burst));
  }
  t.sinks.push_back(&noise);
  t.Run();
  t.counter("noise_samples") = noise.TotalSamples();
  t.counter("noise_runtime_cycles") = noise.TotalRuntime();
  t.counter("noise_cycles") = noise.TotalNoise();
  t.counter("noise_max_single") = noise.MaxSingle();
  t.counter("noise_preemptions") = noise.TotalPreemptions();
  t.counter("noise_migrations") = noise.TotalMigrations();
  t.counter("noise_timer_ticks") = noise.TotalTimerTicks();
  t.counter("noise_stolen_cycles") = noise.TotalStolen();
  t.counter("noise_runq_cycles") = noise.TotalRunQueue();
  t.counter("noise_lock_handoffs") = noise.TotalLockHandoffs();
}

void Drive(Trial& t, const RaceFixtureSpec& race) {
  // Syscall-boundary recording so the race reports carry op names.
  t.ProfileAs("user");
  osim::Shared<std::uint64_t> cell(t.kernel, "fixture.cell");
  // Spawns one racer per task from body(task index), then runs.
  const auto race_with = [&](const auto& body) {
    for (int p = 0; p < race.tasks; ++p) {
      t.kernel.Spawn("racer" + std::to_string(p), body(p));
    }
    t.Run();
  };
  switch (race.kind) {
    case RaceFixtureSpec::Kind::kCounter:
      race_with([&](int) {
        return osworkloads::RaceCounterWorkload(&t.kernel, &t.profiler, &cell,
                                                race.rounds, race.stride);
      });
      return;
    case RaceFixtureSpec::Kind::kReaders:
      // Task 0 publishes; the rest scan.
      race_with([&](int p) {
        return p == 0 ? osworkloads::RacePublishWorkload(
                            &t.kernel, &t.profiler, &cell, race.rounds,
                            race.stride)
                      : osworkloads::RaceScanWorkload(&t.kernel, &t.profiler,
                                                      &cell, race.rounds,
                                                      race.stride);
      });
      return;
    case RaceFixtureSpec::Kind::kLockedControl: {
      osim::SimSemaphore lock(&t.kernel, 1, "fixture_lock");
      race_with([&](int) {
        return osworkloads::RaceLockedWorkload(&t.kernel, &t.profiler, &cell,
                                               &lock, race.rounds,
                                               race.stride);
      });
      CountLock(t, lock);
      return;
    }
  }
}

void Drive(Trial& t, const ClusterSpec& cl) {
  if (t.kernel.num_nodes() != cl.nodes) {
    throw std::invalid_argument(
        "RunTrial: ClusterSpec.nodes must match kernel.num_nodes");
  }
  osnet::Fabric fabric(&t.kernel, cl.net);
  osnet::Dlm dlm(&t.kernel, &fabric, cl.dlm);
  osfs::ClusterVolume volume(&t.kernel, &t.disk);
  // mkfs: every parent directory of the shared path, then the file.
  std::size_t pos = 1;
  for (std::size_t slash = cl.path.find('/', pos); slash != std::string::npos;
       slash = cl.path.find('/', pos)) {
    volume.AddDir(cl.path.substr(0, slash));
    pos = slash + 1;
  }
  volume.AddFile(cl.path, cl.file_bytes);
  if (t.scenario.profilers.fs) {
    // One profiler across all mounts: the cluster-wide view, with each
    // op still node-tagged through the interference channel.
    t.ProfileAs("cluster");
  }
  // Mounts after the DLM exists: the ctor registers the node's downgrade
  // hook (the pre-grant flush that makes revokes coherent).
  std::vector<std::unique_ptr<osfs::ClusterFsNode>> mounts;
  for (int n = 0; n < cl.nodes; ++n) {
    mounts.push_back(
        std::make_unique<osfs::ClusterFsNode>(&volume, &dlm, n, cl.cfs));
    if (t.scenario.profilers.fs) {
      mounts.back()->SetProfiler(&t.profiler);
    }
  }
  dlm.Start();
  int remaining = cl.nodes * cl.clients_per_node;
  osim::WaitQueue done(&t.kernel);
  std::vector<osworkloads::ClusterClientStats> stats(
      static_cast<std::size_t>(remaining));
  for (int n = 0; n < cl.nodes; ++n) {
    for (int c = 0; c < cl.clients_per_node; ++c) {
      const int index = n * cl.clients_per_node + c;
      t.kernel.SpawnOn(
          n, "client" + std::to_string(n) + "." + std::to_string(c),
          osworkloads::ClusterClientWorkload(
              &t.kernel, mounts[static_cast<std::size_t>(n)].get(), cl.path,
              cl.iterations, cl.write_ratio, cl.io_bytes, cl.file_bytes,
              cl.think_cycles,
              t.result.seed + 7'919u * static_cast<std::uint64_t>(index),
              &stats[static_cast<std::size_t>(index)], &remaining, &done));
    }
  }
  t.kernel.Spawn("cluster_ctl", osworkloads::ClusterControl(
                                    &t.kernel, &dlm, &remaining, &done));
  t.Run();
  for (const osworkloads::ClusterClientStats& s : stats) {
    t.counter("reads") += s.reads;
    t.counter("writes") += s.writes;
    t.counter("bytes_read") += s.bytes_read;
    t.counter("bytes_written") += s.bytes_written;
  }
  t.counter("dlm_acquires") = dlm.acquires();
  t.counter("dlm_cache_hits") = dlm.cache_hits();
  t.counter("dlm_remote_requests") = dlm.remote_requests();
  t.counter("dlm_queued_waits") = dlm.queued_waits();
  t.counter("dlm_basts") = dlm.basts_sent();
  t.counter("dlm_downgrades") = dlm.downgrades();
  t.counter("net_messages") = fabric.messages_sent();
  t.counter("net_bytes") = fabric.bytes_sent();
  for (const auto& mount : mounts) {
    t.counter("cache_invalidations") += mount->invalidations();
    t.counter("pages_flushed") += mount->pages_flushed();
  }
}

}  // namespace

TrialResult RunTrial(const Scenario& scenario, int trial) {
  const osprof::WallTimer timer;
  Trial t(scenario, trial);
  std::visit([&t](const auto& spec) { Drive(t, spec); }, scenario.workload);
  t.result.wall_seconds = timer.Seconds();
  return std::move(t.result);
}

RunResult RunScenario(const Scenario& scenario, const RunOptions& options) {
  if (options.trials <= 0) {
    throw std::invalid_argument("RunScenario: trials must be positive");
  }
  const osprof::WallTimer timer;

  int jobs = options.jobs;
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  jobs = std::min(jobs, options.trials);

  RunResult result;
  result.scenario = scenario.name;
  result.options = options;
  result.options.jobs = jobs;
  result.trials.resize(static_cast<std::size_t>(options.trials));

  // Work-stealing over the trial indices; results land in their slot, so
  // neither the claim order nor the worker count affects the output.
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(
      static_cast<std::size_t>(options.trials));
  auto worker = [&] {
    for (int i;
         (i = next.fetch_add(1, std::memory_order_relaxed)) < options.trials;) {
      try {
        result.trials[static_cast<std::size_t>(i)] = RunTrial(scenario, i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    }
  };
  if (jobs == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) {
      pool.emplace_back(worker);
    }
    for (std::thread& t : pool) {
      t.join();
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e != nullptr) {
      std::rethrow_exception(e);
    }
  }

  // Merge layer by layer, in trial order: ProfileSet::Merge is associative
  // and commutative, so the totals are identical for any jobs value; the
  // fixed order makes them bit-identical trivially.
  for (const TrialResult& t : result.trials) {
    for (const auto& [layer, set] : t.layers) {
      if (result.layers.find(layer) == result.layers.end()) {
        result.layers.emplace(
            layer,
            LayerResult{osprof::ProfileSet(set.resolution()),
                        {},
                        osprof::LayeredProfileSet(set.resolution())});
      }
    }
  }
  for (const TrialResult& t : result.trials) {
    for (auto& [layer, lr] : result.layers) {
      const auto it = t.layers.find(layer);
      if (it != t.layers.end()) {
        lr.merged.Merge(it->second);
      }
      const auto lit = t.layered.find(layer);
      if (lit != t.layered.end()) {
        lr.layered.Merge(lit->second);
      }
    }
  }
  for (auto& [layer, lr] : result.layers) {
    lr.dispersion = ComputeDispersion(lr.merged, result.trials, layer);
  }

  result.wall_seconds = timer.Seconds();
  return result;
}

Equation3Check CheckEquation3(const Scenario& scenario, const NoiseSpec& spec,
                              int trials,
                              std::uint64_t measured_preemptions) {
  Equation3Check check;
  check.tolerance = spec.eq3_tolerance;
  // Equation 3's preemption term assumes a competitor is waiting; the sim
  // (like a real scheduler) re-dispatches a quantum-expired thread when
  // the run queue is empty.  With no CPU oversubscription the model
  // therefore predicts zero forced preemptions.
  if (spec.tasks > scenario.kernel.num_cpus) {
    osprof::Histogram samples;
    samples.set_bucket(osprof::BucketIndex(spec.burst),
                       static_cast<std::uint64_t>(spec.tasks) * spec.samples *
                           static_cast<std::uint64_t>(trials));
    check.predicted = osprof::ExpectedPreemptedRequests(
        samples, static_cast<double>(scenario.kernel.quantum));
  }
  check.measured = static_cast<double>(measured_preemptions);
  if (check.predicted > 0.0) {
    check.rel_err =
        std::abs(check.measured - check.predicted) / check.predicted;
  } else if (check.measured > 0.0) {
    check.rel_err = 1.0;  // Preemptions where the model predicts none.
  }
  return check;
}

std::string RenderDispersion(const LayerResult& layer, int trials) {
  std::ostringstream os;
  // Heaviest operations first: the paper's profile preprocessing order.
  for (const std::string& op : layer.merged.ByTotalLatency()) {
    const auto it =
        std::find_if(layer.dispersion.begin(), layer.dispersion.end(),
                     [&op](const OpDispersion& d) { return d.op == op; });
    if (it == layer.dispersion.end() || it->first_bucket < 0) {
      continue;
    }
    const OpDispersion& d = *it;
    char head[160];
    std::snprintf(head, sizeof(head),
                  "%s: %d peak(s) in %d/%d trials; buckets %d..%d\n",
                  d.op.c_str(), d.modal_peak_count, d.stable_peak_trials,
                  trials, d.first_bucket, d.last_bucket);
    os << head;
    os << "  bucket        min     median        max     merged\n";
    const osprof::Histogram& mh = layer.merged.Find(op)->histogram();
    for (int b = d.first_bucket; b <= d.last_bucket; ++b) {
      if (mh.bucket(b) == 0) {
        continue;
      }
      const std::size_t i = static_cast<std::size_t>(b - d.first_bucket);
      char line[160];
      std::snprintf(line, sizeof(line), "  %6d %10llu %10llu %10llu %10llu\n",
                    b, static_cast<unsigned long long>(d.min_count[i]),
                    static_cast<unsigned long long>(d.median_count[i]),
                    static_cast<unsigned long long>(d.max_count[i]),
                    static_cast<unsigned long long>(mh.bucket(b)));
      os << line;
    }
  }
  return os.str();
}

}  // namespace osrunner
