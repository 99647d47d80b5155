// The real-OS user-level profiler: POSIX syscall interposition.
//
// This is the paper's user-level profiling path, unchanged in spirit: each
// system call is replaced by a wrapper that reads the TSC, executes the
// call, reads the TSC again, and sorts the latency into a log2 bucket
// (paper §4, "POSIX user-level profilers").  Because only the interface is
// instrumented, the kernel runs unmodified; the per-call overhead is two
// TSC reads and a bucket store.
//
// Used by examples/real_syscalls.cpp to profile the host OS.  Tests only
// assert mechanics (counts, op names), never latency shapes -- those are
// host-dependent.

#ifndef OSPROF_SRC_PROFILERS_POSIX_PROFILER_H_
#define OSPROF_SRC_PROFILERS_POSIX_PROFILER_H_

#include <sys/stat.h>
#include <sys/types.h>

#include <cstddef>
#include <string>
#include <string_view>

#include "src/core/clock.h"
#include "src/core/op_table.h"
#include "src/core/profile.h"
#include "src/profilers/profiler_sink.h"

namespace osprofilers {

class PosixProfiler : public ProfilerSink {
 public:
  explicit PosixProfiler(int resolution = 1)
      : profiles_(resolution), resolution_(resolution) {
    // Pre-resolve every syscall probe once, here, so the wrappers never
    // touch a string-keyed lookup on the measured path.
    open_ = Resolve("open");
    read_ = Resolve("read");
    write_ = Resolve("write");
    llseek_ = Resolve("llseek");
    close_ = Resolve("close");
    stat_ = Resolve("stat");
    fsync_ = Resolve("fsync");
    unlink_ = Resolve("unlink");
    mkdir_ = Resolve("mkdir");
  }

  // --- ProfilerSink ------------------------------------------------------
  const std::string& layer() const override { return layer_; }
  int resolution() const override { return resolution_; }
  // No layered decomposition: there is no simulated kernel underneath to
  // attribute waits, so only the flat profiles are collectable.
  osprof::ProfileSet Collect() const override { return profiles_; }
  // Clears counts in place; pre-resolved handles stay valid.
  void Reset() override { profiles_.ClearCounts(); }

  // Interns `op` and returns a cacheable probe handle (survives Reset()).
  osprof::ProbeHandle Resolve(std::string_view op) {
    return profiles_.Resolve(op);
  }

  // Instrumented wrappers.  Same return values and errno behaviour as the
  // raw syscalls; the measurement covers the call itself.
  int Open(const std::string& path, int flags);
  int Open(const std::string& path, int flags, mode_t mode);
  long Read(int fd, void* buf, std::size_t count);
  long Write(int fd, const void* buf, std::size_t count);
  long Lseek(int fd, long offset, int whence);
  int Close(int fd);
  int Stat(const std::string& path, struct stat* out);
  int Fsync(int fd);
  int Unlink(const std::string& path);
  int Mkdir(const std::string& path, mode_t mode);

  const osprof::ProfileSet& profiles() const { return profiles_; }

  // Measures a user-supplied callable under a pre-resolved handle; the
  // record after the second TSC read is a bucket store, nothing else.
  template <typename Fn>
  auto Measure(osprof::ProbeHandle op, Fn&& fn) -> decltype(fn()) {
    const osprof::Cycles start = osprof::ReadTsc();
    auto result = fn();
    const osprof::Cycles end = osprof::ReadTsc();
    profiles_.AddById(op.id(), end >= start ? end - start : 0);
    return result;
  }

  // String-keyed convenience form (for workloads whose interesting unit is
  // larger than one syscall): resolve, then dispatch.
  template <typename Fn>
  auto Measure(std::string_view op, Fn&& fn) -> decltype(fn()) {
    return Measure(Resolve(op), std::forward<Fn>(fn));
  }

 private:
  std::string layer_ = "posix";
  osprof::ProfileSet profiles_;
  int resolution_;
  // Handles for the instrumented wrappers, resolved at construction.
  osprof::ProbeHandle open_, read_, write_, llseek_, close_, stat_, fsync_,
      unlink_, mkdir_;
};

}  // namespace osprofilers

#endif  // OSPROF_SRC_PROFILERS_POSIX_PROFILER_H_
