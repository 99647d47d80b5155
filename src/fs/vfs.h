// The VFS interface of the simulated OS.
//
// Mirrors the vector-of-operations structure the paper's FoSgen
// instrumenter relies on, and puts FoSgen's probe pair around every entry
// of it in one place: each public operation runs its implementation's
// virtual ...Impl body under the attached SimProfiler, named after the
// operation ("open", "read", ...).  File systems and mounts implement the
// bodies, profiling layers stack on top of them (nullfs/Wrapfs style),
// and workloads call the public operations like system calls.

#ifndef OSPROF_SRC_FS_VFS_H_
#define OSPROF_SRC_FS_VFS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/profilers/sim_profiler.h"
#include "src/sim/task.h"

namespace osfs {

using osim::Task;
using osprofilers::SimProfiler;
using osprofilers::WrapIfAttached;

struct FileAttr {
  std::uint64_t size = 0;
  bool is_dir = false;
};

// The non-empty components of `path` in order, as views into it: "/a//b/"
// gives "a", "b", and "" and "/" give none.  Walking them allocates
// nothing, so path lookup costs no heap traffic:
//   for (std::string_view part : PathComponents(path)) ...
class PathComponents {
 public:
  class Iterator {
   public:
    std::string_view operator*() const { return part_; }
    Iterator& operator++() {
      Advance(part_.data() + part_.size() - path_.data());
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return part_.data() == other.part_.data();
    }

   private:
    friend class PathComponents;
    Iterator(std::string_view path, std::size_t from) : path_(path) {
      Advance(from);
    }
    // Finds the first component at or after `from`; past the end, part_
    // is the empty view at path_'s end.
    void Advance(std::size_t from) {
      const std::size_t start = path_.find_first_not_of('/', from);
      if (start == std::string_view::npos) {
        part_ = path_.substr(path_.size());
        return;
      }
      const std::size_t end = path_.find('/', start);
      part_ = path_.substr(start, end == std::string_view::npos
                                      ? std::string_view::npos
                                      : end - start);
    }

    std::string_view path_;
    std::string_view part_;
  };

  explicit PathComponents(std::string_view path) : path_(path) {}
  Iterator begin() const { return Iterator(path_, 0); }
  Iterator end() const { return Iterator(path_, path_.size()); }

 private:
  std::string_view path_;
};

// How many components `path` has (what a lookup's CPU cost scales with).
inline std::size_t CountPathComponents(std::string_view path) {
  std::size_t count = 0;
  for ([[maybe_unused]] std::string_view part : PathComponents(path)) {
    ++count;
  }
  return count;
}

// `path` split before its last component: the prefix whose components
// are all but the last, and the last one.  Both are empty for a path with
// no components.
struct ParentAndLeaf {
  std::string_view parent;
  std::string_view leaf;
};
inline ParentAndLeaf SplitParent(std::string_view path) {
  std::string_view leaf;
  for (std::string_view part : PathComponents(path)) {
    leaf = part;
  }
  if (leaf.empty()) {
    return {};
  }
  return {path.substr(0, static_cast<std::size_t>(leaf.data() - path.data())),
          leaf};
}

// One readdir call returns the entries of one directory page, like the
// getdents buffer fills the paper's workloads issue repeatedly until an
// empty (past-EOF) result.
struct DirentBatch {
  std::vector<std::string> names;
  bool at_end = false;
};

class Vfs {
 public:
  virtual ~Vfs() = default;

  // Opens a file or directory; returns a descriptor.  `direct_io` selects
  // the O_DIRECT read/write path (bypasses the page cache, holds i_sem for
  // the duration of the transfer, as Linux 2.6.11 did).
  Task<int> Open(const std::string& path, bool direct_io) {
    return WrapIfAttached(profiler_, op_probes_.open,
                          OpenImpl(path, direct_io));
  }
  Task<void> Close(int fd) {
    return WrapIfAttached(profiler_, op_probes_.close, CloseImpl(fd));
  }

  // Reads `bytes` at the current position, advancing it.  Returns bytes
  // read (0 at EOF).
  Task<std::int64_t> Read(int fd, std::uint64_t bytes) {
    return WrapIfAttached(profiler_, op_probes_.read, ReadImpl(fd, bytes));
  }

  // Appends/overwrites `bytes` at the current position, advancing it and
  // extending the file as needed.  Buffered writes return after dirtying
  // the page cache; their disk latency is only visible to a driver-level
  // profiler (§4, "Driver-level profilers").
  Task<std::int64_t> Write(int fd, std::uint64_t bytes) {
    return WrapIfAttached(profiler_, op_probes_.write, WriteImpl(fd, bytes));
  }

  // Sets the file position.  On an unpatched fs this is
  // generic_file_llseek and takes the inode semaphore (§6.1).
  Task<std::uint64_t> Llseek(int fd, std::uint64_t pos) {
    return WrapIfAttached(profiler_, op_probes_.llseek, LlseekImpl(fd, pos));
  }

  // Returns the next batch of directory entries, or at_end when the
  // position is past the directory's end.  Recorded with the value the
  // body reports (Figure 8's readdir_past_EOF * 1024 for Ext2, 0
  // elsewhere), so an attached ValueCorrelator can bind peaks to it.
  Task<DirentBatch> Readdir(int fd) {
    std::uint64_t value = 0;
    if (profiler_ == nullptr) {
      co_return co_await ReaddirImpl(fd, &value);
    }
    co_return co_await profiler_->WrapWithValue(
        op_probes_.readdir, ReaddirImpl(fd, &value), &value);
  }

  // Writes back the file's dirty pages synchronously.
  Task<void> Fsync(int fd) {
    return WrapIfAttached(profiler_, op_probes_.fsync, FsyncImpl(fd));
  }

  // Creates a file and opens it.
  Task<int> Create(const std::string& path) {
    return WrapIfAttached(profiler_, op_probes_.create, CreateImpl(path));
  }
  Task<void> Unlink(const std::string& path) {
    return WrapIfAttached(profiler_, op_probes_.unlink, UnlinkImpl(path));
  }
  Task<FileAttr> Stat(const std::string& path) {
    return WrapIfAttached(profiler_, op_probes_.stat, StatImpl(path));
  }

  // Attaches FoSgen-style instrumentation: every operation above, and
  // every internal operation the implementation wraps with profiler_,
  // records into `profiler`.  The ten operation names are resolved here
  // and the implementation's own in ResolveProbes, once, so the
  // per-operation path dispatches on pre-resolved handles.  nullptr
  // detaches.
  void SetProfiler(SimProfiler* profiler) {
    profiler_ = profiler;
    if (profiler == nullptr) {
      return;
    }
    op_probes_ = {profiler->Resolve("open"),   profiler->Resolve("close"),
                  profiler->Resolve("read"),   profiler->Resolve("write"),
                  profiler->Resolve("llseek"), profiler->Resolve("readdir"),
                  profiler->Resolve("fsync"),  profiler->Resolve("create"),
                  profiler->Resolve("unlink"), profiler->Resolve("stat")};
    ResolveProbes(*profiler);
  }

 protected:
  // The operation bodies, one per public operation.  ReaddirImpl may
  // store the value Readdir records into `*value`; it starts at 0.
  virtual Task<int> OpenImpl(const std::string& path, bool direct_io) = 0;
  virtual Task<void> CloseImpl(int fd) = 0;
  virtual Task<std::int64_t> ReadImpl(int fd, std::uint64_t bytes) = 0;
  virtual Task<std::int64_t> WriteImpl(int fd, std::uint64_t bytes) = 0;
  virtual Task<std::uint64_t> LlseekImpl(int fd, std::uint64_t pos) = 0;
  virtual Task<DirentBatch> ReaddirImpl(int fd, std::uint64_t* value) = 0;
  virtual Task<void> FsyncImpl(int fd) = 0;
  virtual Task<int> CreateImpl(const std::string& path) = 0;
  virtual Task<void> UnlinkImpl(const std::string& path) = 0;
  virtual Task<FileAttr> StatImpl(const std::string& path) = 0;

  // Resolves the probes of the implementation's internal operations
  // (readpage, RPCs, ...) when SetProfiler attaches `profiler`.
  virtual void ResolveProbes(SimProfiler& /*profiler*/) {}

  // The attached profiler, or nullptr; internal operations wrap with it.
  SimProfiler* profiler_ = nullptr;

 private:
  struct OpProbes {
    osprof::ProbeHandle open, close, read, write, llseek, readdir, fsync,
        create, unlink, stat;
  };
  OpProbes op_probes_;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_VFS_H_
