// The VFS interface of the simulated OS.
//
// Mirrors the vector-of-operations structure the paper's FoSgen
// instrumenter relies on: each operation is a virtual coroutine, so file
// systems implement them, profiling layers stack on top of them
// (nullfs/Wrapfs style), and workloads call them like system calls.

#ifndef OSPROF_SRC_FS_VFS_H_
#define OSPROF_SRC_FS_VFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/task.h"

namespace osfs {

using osim::Task;

struct FileAttr {
  std::uint64_t size = 0;
  bool is_dir = false;
};

// The non-empty components of `path` in order: "/a//b/" gives {"a", "b"}.
inline std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start < path.size()) {
    const std::size_t slash = path.find('/', start);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (end > start) {
      parts.push_back(path.substr(start, end - start));
    }
    start = end + 1;
  }
  return parts;
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
