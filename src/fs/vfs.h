// The VFS interface of the simulated OS.
//
// Mirrors the vector-of-operations structure the paper's FoSgen
// instrumenter relies on: each operation is a virtual coroutine, so file
// systems implement them, profiling layers stack on top of them
// (nullfs/Wrapfs style), and workloads call them like system calls.

#ifndef OSPROF_SRC_FS_VFS_H_
#define OSPROF_SRC_FS_VFS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/sim/task.h"

namespace osfs {

using osim::Task;

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
  virtual Task<int> Open(const std::string& path, bool direct_io) = 0;
  virtual Task<void> Close(int fd) = 0;

  // Reads `bytes` at the current position, advancing it.  Returns bytes
  // read (0 at EOF).
  virtual Task<std::int64_t> Read(int fd, std::uint64_t bytes) = 0;

  // Appends/overwrites `bytes` at the current position, advancing it and
  // extending the file as needed.  Buffered writes return after dirtying
  // the page cache; their disk latency is only visible to a driver-level
  // profiler (§4, "Driver-level profilers").
  virtual Task<std::int64_t> Write(int fd, std::uint64_t bytes) = 0;

  // Sets the file position.  On an unpatched fs this is
  // generic_file_llseek and takes the inode semaphore (§6.1).
  virtual Task<std::uint64_t> Llseek(int fd, std::uint64_t pos) = 0;

  // Returns the next batch of directory entries, or at_end when the
  // position is past the directory's end.
  virtual Task<DirentBatch> Readdir(int fd) = 0;

  // Writes back the file's dirty pages synchronously.
  virtual Task<void> Fsync(int fd) = 0;

  // Creates a file and opens it.
  virtual Task<int> Create(const std::string& path) = 0;
  virtual Task<void> Unlink(const std::string& path) = 0;
  virtual Task<FileAttr> Stat(const std::string& path) = 0;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_VFS_H_
