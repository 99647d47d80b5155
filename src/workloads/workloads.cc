#include "src/workloads/workloads.h"

#include <algorithm>

namespace osworkloads {
namespace {

void BuildDirLevel(osfs::Ext2SimFs* fs, const std::string& dir, int level,
                   const TreeSpec& spec, osim::Rng* rng, BuiltTree* out) {
  out->directories.push_back(dir);
  for (int f = 0; f < spec.files_per_dir; ++f) {
    const std::string path = dir + "/f" + std::to_string(f) + ".c";
    const std::uint64_t size = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(rng->LogNormal(
                static_cast<double>(spec.median_file_bytes),
                spec.file_size_sigma)));
    fs->AddFile(path, size);
    out->files.push_back(path);
    out->total_bytes += size;
  }
  // `level` counts directory levels below a top dir; spec.depth of them
  // get subdirectories.
  if (level >= spec.depth) {
    return;
  }
  for (int d = 0; d < spec.subdirs_per_dir; ++d) {
    const std::string sub = dir + "/d" + std::to_string(d);
    fs->AddDir(sub);
    BuildDirLevel(fs, sub, level + 1, spec, rng, out);
  }
}

}  // namespace

BuiltTree BuildSourceTree(osfs::Ext2SimFs* fs, const std::string& root,
                          const TreeSpec& spec) {
  BuiltTree out;
  out.root = root;
  osim::Rng rng(spec.seed);
  // Create the root and any missing intermediate directories.
  std::string prefix;
  for (std::string_view part : osfs::PathComponents(root)) {
    prefix += '/';
    prefix += part;
    if (!fs->Exists(prefix)) {
      fs->AddDir(prefix);
    }
  }
  for (int t = 0; t < spec.top_dirs; ++t) {
    const std::string top = root + "/top" + std::to_string(t);
    fs->AddDir(top);
    BuildDirLevel(fs, top, 0, spec, &rng, &out);
  }
  return out;
}

namespace {

Task<void> GrepDir(Kernel* kernel, osfs::Vfs* vfs, std::string path,
                   double per_byte_cpu, GrepStats* stats) {
  ++stats->directories_visited;
  const int dirfd = co_await vfs->Open(path, /*direct_io=*/false);
  if (dirfd < 0) {
    co_return;
  }
  std::vector<std::string> subdirs;
  std::vector<std::string> files;
  while (true) {
    const osfs::DirentBatch batch = co_await vfs->Readdir(dirfd);
    if (batch.names.empty()) {
      break;  // This call was the past-EOF probe.
    }
    for (const std::string& name : batch.names) {
      const std::string child = path + "/" + name;
      const osfs::FileAttr attr = co_await vfs->Stat(child);
      if (attr.is_dir) {
        subdirs.push_back(child);
      } else {
        files.push_back(child);
      }
    }
  }
  co_await vfs->Close(dirfd);

  for (const std::string& file : files) {
    const int fd = co_await vfs->Open(file, /*direct_io=*/false);
    if (fd < 0) {
      continue;
    }
    std::int64_t got = 0;
    do {
      got = co_await vfs->Read(fd, 4096);
      if (got > 0) {
        stats->bytes_read += static_cast<std::uint64_t>(got);
        // grep's own string matching: user time proportional to data.
        const auto user = static_cast<Cycles>(
            std::max(1.0, per_byte_cpu * static_cast<double>(got)));
        co_await kernel->CpuUser(user);
      }
    } while (got > 0);
    co_await vfs->Close(fd);
    ++stats->files_read;
  }
  for (const std::string& sub : subdirs) {
    co_await GrepDir(kernel, vfs, sub, per_byte_cpu, stats);
  }
}

}  // namespace

Task<void> GrepWorkload(Kernel* kernel, osfs::Vfs* vfs, std::string root,
                        double per_byte_cpu, GrepStats* stats) {
  co_await GrepDir(kernel, vfs, root, per_byte_cpu, stats);
}

Task<void> RandomReadWorkload(Kernel* kernel, osfs::Vfs* vfs, std::string path,
                              int iterations, std::uint64_t seed) {
  osim::Rng rng(seed);
  const int fd = co_await vfs->Open(path, /*direct_io=*/true);
  if (fd < 0) {
    co_return;
  }
  const osfs::FileAttr attr = co_await vfs->Stat(path);
  const std::uint64_t positions = std::max<std::uint64_t>(1, attr.size / 512);
  for (int i = 0; i < iterations; ++i) {
    const std::uint64_t pos = rng.Below(positions) * 512;
    (void)co_await vfs->Llseek(fd, pos);
    (void)co_await vfs->Read(fd, 512);
    // Consume the data: ~10us of jittered application work per iteration,
    // longer than a context switch so a woken competitor genuinely
    // overlaps this process's next I/O (as on real hardware).
    co_await kernel->CpuUser(
        static_cast<Cycles>(17'000 * rng.Uniform(0.5, 1.5)));
  }
  co_await vfs->Close(fd);
}

Task<void> ZeroByteReadWorkload(Kernel* kernel, osfs::Vfs* vfs,
                                std::string path, std::uint64_t requests,
                                Cycles user_cycles) {
  const int fd = co_await vfs->Open(path, /*direct_io=*/false);
  if (fd < 0) {
    co_return;
  }
  for (std::uint64_t i = 0; i < requests; ++i) {
    co_await kernel->CpuUser(user_cycles);
    (void)co_await vfs->Read(fd, 0);
  }
  co_await vfs->Close(fd);
}

namespace {

Task<void> CloneOnce(Kernel* kernel, osim::SimSemaphore* lock,
                     Cycles lock_free_cpu, Cycles locked_cpu) {
  co_await kernel->Cpu(lock_free_cpu);
  co_await lock->Acquire();
  co_await kernel->Cpu(locked_cpu);
  lock->Release();
}

}  // namespace

Task<void> CloneWorkload(Kernel* kernel, osim::SimSemaphore* process_table_lock,
                         SimProfiler* profiler, int iterations,
                         Cycles lock_free_cpu, Cycles locked_cpu,
                         Cycles user_think_cpu) {
  // Resolve the probe once; the loop body records through the handle.
  const osprof::ProbeHandle clone = profiler->Resolve("clone");
  for (int i = 0; i < iterations; ++i) {
    co_await profiler->Wrap(
        clone,
        CloneOnce(kernel, process_table_lock, lock_free_cpu, locked_cpu));
    // Jitter the think time: without it, identical deterministic loop
    // periods phase-lock the processes into a permanent lock convoy,
    // which no real workload exhibits.
    const double jitter = kernel->rng().Uniform(0.5, 1.5);
    co_await kernel->CpuUser(static_cast<Cycles>(
        std::max(1.0, static_cast<double>(user_think_cpu) * jitter)));
  }
}

Task<void> PostmarkWorkload(Kernel* kernel, osfs::Vfs* vfs,
                            PostmarkConfig config, PostmarkStats* stats) {
  osim::Rng rng(config.seed);
  std::vector<std::string> pool;
  int next_id = 0;

  auto make_name = [&config, &next_id] {
    return config.directory + "/pm" + std::to_string(next_id++);
  };
  auto file_size = [&config, &rng] {
    return config.min_file_bytes +
           rng.Below(config.max_file_bytes - config.min_file_bytes + 1);
  };

  auto create_one = [&](std::uint64_t bytes) -> Task<void> {
    const std::string name = make_name();
    const int fd = co_await vfs->Create(name);
    if (fd < 0) {
      co_return;
    }
    std::uint64_t remaining = bytes;
    while (remaining > 0) {
      const std::uint64_t chunk = std::min<std::uint64_t>(remaining, 4096);
      (void)co_await vfs->Write(fd, chunk);
      remaining -= chunk;
      stats->bytes_written += chunk;
    }
    co_await vfs->Close(fd);
    pool.push_back(name);
    ++stats->creates;
  };

  // Phase 1: create the initial pool.
  for (int i = 0; i < config.initial_files; ++i) {
    co_await create_one(file_size());
    co_await kernel->CpuUser(300);
  }

  // Phase 2: transactions.
  for (int t = 0; t < config.transactions && !pool.empty(); ++t) {
    // Half of each transaction: read or append an existing file.  Copy the
    // name: the pool vector may reallocate while this coroutine is
    // suspended inside create_one.
    const std::string victim =
        pool[static_cast<std::size_t>(rng.Below(pool.size()))];
    if (rng.Chance(config.read_bias)) {
      const int fd = co_await vfs->Open(victim, /*direct_io=*/false);
      if (fd >= 0) {
        std::int64_t got = 0;
        do {
          got = co_await vfs->Read(fd, config.read_chunk);
          if (got > 0) {
            stats->bytes_read += static_cast<std::uint64_t>(got);
          }
        } while (got > 0);
        co_await vfs->Close(fd);
        ++stats->reads;
      }
    } else {
      const int fd = co_await vfs->Open(victim, /*direct_io=*/false);
      if (fd >= 0) {
        const osfs::FileAttr attr = co_await vfs->Stat(victim);
        (void)co_await vfs->Llseek(fd, attr.size);
        const std::uint64_t chunk = 512 + rng.Below(4096);
        (void)co_await vfs->Write(fd, chunk);
        stats->bytes_written += chunk;
        co_await vfs->Close(fd);
        ++stats->appends;
      }
    }
    // Other half: create or delete.
    if (rng.Chance(config.create_bias)) {
      co_await create_one(file_size());
    } else if (pool.size() > 1) {
      const std::size_t idx = static_cast<std::size_t>(rng.Below(pool.size()));
      co_await vfs->Unlink(pool[idx]);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
      ++stats->deletes;
    }
    co_await kernel->CpuUser(500);
  }

  // Phase 3: cleanup.
  for (const std::string& name : pool) {
    co_await vfs->Unlink(name);
    ++stats->deletes;
  }
  pool.clear();
}

Task<void> CompileWorkload(Kernel* kernel, osfs::Vfs* vfs,
                           CompileConfig config, CompileStats* stats) {
  std::vector<std::string> objects;
  int id = 0;
  // Phase 1 per source: read, compile (user CPU), write the object.
  for (const std::string& source : config.sources) {
    const int fd = co_await vfs->Open(source, false);
    if (fd < 0) {
      continue;
    }
    std::uint64_t source_bytes = 0;
    std::int64_t got = 0;
    do {
      got = co_await vfs->Read(fd, 4096);
      if (got > 0) {
        source_bytes += static_cast<std::uint64_t>(got);
      }
    } while (got > 0);
    co_await vfs->Close(fd);
    stats->bytes_read += source_bytes;

    const auto compile_cpu = static_cast<Cycles>(
        std::max(1.0, config.compile_cpu_per_byte *
                          static_cast<double>(source_bytes)));
    co_await kernel->CpuUser(compile_cpu);

    const std::string object =
        config.output_dir + "/o" + std::to_string(id++) + ".o";
    const int ofd = co_await vfs->Create(object);
    if (ofd >= 0) {
      (void)co_await vfs->Write(ofd, config.object_bytes);
      co_await vfs->Close(ofd);
      objects.push_back(object);
      stats->bytes_written += config.object_bytes;
    }
    ++stats->sources_compiled;
  }
  // Phase 2: link -- re-read every object, write the binary, fsync it.
  for (const std::string& object : objects) {
    const int fd = co_await vfs->Open(object, false);
    if (fd < 0) {
      continue;
    }
    std::int64_t got = 0;
    do {
      got = co_await vfs->Read(fd, 4096);
      if (got > 0) {
        stats->bytes_read += static_cast<std::uint64_t>(got);
      }
    } while (got > 0);
    co_await vfs->Close(fd);
  }
  const int bin = co_await vfs->Create(config.output_dir + "/a.out");
  if (bin >= 0) {
    std::uint64_t remaining = config.binary_bytes;
    while (remaining > 0) {
      const std::uint64_t chunk = std::min<std::uint64_t>(remaining, 4096);
      (void)co_await vfs->Write(bin, chunk);
      remaining -= chunk;
      stats->bytes_written += chunk;
    }
    co_await vfs->Fsync(bin);
    co_await vfs->Close(bin);
  }
}

// --- SimRace fixtures -------------------------------------------------------

namespace {

// The racy core: the await between the read and the write is what makes
// the read-modify-write span scheduler turns and lose updates.
Task<void> RaceIncrementOnce(Kernel* kernel,
                             osim::Shared<std::uint64_t>* cell,
                             Cycles stride) {
  const std::uint64_t seen = OSIM_SHARED_RO(*cell);
  co_await kernel->Cpu(stride);
  OSIM_SHARED_RW(*cell) = seen + 1;
}

Task<void> RacePublishOnce(Kernel* kernel, osim::Shared<std::uint64_t>* cell,
                           int round, Cycles stride) {
  OSIM_SHARED_RW(*cell) = static_cast<std::uint64_t>(round);
  co_await kernel->Cpu(stride);
}

Task<void> RaceScanOnce(Kernel* kernel, osim::Shared<std::uint64_t>* cell,
                        std::uint64_t* acc, Cycles stride) {
  *acc += OSIM_SHARED_RO(*cell);
  co_await kernel->Cpu(stride);
}

Task<void> RaceLockedIncrementOnce(Kernel* kernel,
                                   osim::Shared<std::uint64_t>* cell,
                                   osim::SimSemaphore* lock, Cycles stride) {
  co_await lock->Acquire();
  const std::uint64_t seen = OSIM_SHARED_RO(*cell);
  co_await kernel->Cpu(stride);
  OSIM_SHARED_RW(*cell) = seen + 1;
  lock->Release();
}

}  // namespace

Task<void> RaceCounterWorkload(Kernel* kernel, SimProfiler* profiler,
                               osim::Shared<std::uint64_t>* cell, int rounds,
                               Cycles stride) {
  const osprof::ProbeHandle increment = profiler->Resolve("increment");
  for (int i = 0; i < rounds; ++i) {
    co_await profiler->Wrap(increment,
                            RaceIncrementOnce(kernel, cell, stride));
    co_await kernel->Sleep(stride);
  }
}

Task<void> RacePublishWorkload(Kernel* kernel, SimProfiler* profiler,
                               osim::Shared<std::uint64_t>* cell, int rounds,
                               Cycles stride) {
  const osprof::ProbeHandle publish = profiler->Resolve("publish");
  for (int i = 0; i < rounds; ++i) {
    co_await profiler->Wrap(publish,
                            RacePublishOnce(kernel, cell, i, stride));
    co_await kernel->Sleep(stride);
  }
}

Task<void> RaceScanWorkload(Kernel* kernel, SimProfiler* profiler,
                            osim::Shared<std::uint64_t>* cell, int rounds,
                            Cycles stride) {
  const osprof::ProbeHandle scan = profiler->Resolve("scan");
  std::uint64_t sum = 0;
  for (int i = 0; i < rounds; ++i) {
    co_await profiler->Wrap(scan, RaceScanOnce(kernel, cell, &sum, stride));
    co_await kernel->Sleep(stride);
  }
}

Task<void> RaceLockedWorkload(Kernel* kernel, SimProfiler* profiler,
                              osim::Shared<std::uint64_t>* cell,
                              osim::SimSemaphore* lock, int rounds,
                              Cycles stride) {
  const osprof::ProbeHandle increment = profiler->Resolve("increment");
  for (int i = 0; i < rounds; ++i) {
    co_await profiler->Wrap(
        increment, RaceLockedIncrementOnce(kernel, cell, lock, stride));
    co_await kernel->Sleep(stride);
  }
}

}  // namespace osworkloads
