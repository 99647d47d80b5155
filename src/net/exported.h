// The server's side of a remote read, write, create and flush: what
// CIFS's smbd and NFS's nfsd do on the file system they export.  Each
// runs on the server thread its request spawned; the exported file
// system's own page cache and disk produce the service-time spread.
//
// `path` must outlive the returned task: the parked client keeps it
// alive.

#ifndef OSPROF_SRC_NET_EXPORTED_H_
#define OSPROF_SRC_NET_EXPORTED_H_

#include <cstdint>
#include <string>

#include "src/fs/vfs.h"
#include "src/sim/task.h"

namespace osnet {

// Reads `bytes` at `offset`: open, seek, read, close.  Returns the bytes
// read, or -1 if `path` cannot be opened.
inline osim::Task<std::int64_t> ExportedRead(osfs::Vfs* fs,
                                             const std::string& path,
                                             std::uint64_t offset,
                                             std::uint64_t bytes) {
  const int fd = co_await fs->Open(path, /*direct_io=*/false);
  if (fd < 0) {
    co_return -1;
  }
  (void)co_await fs->Llseek(fd, offset);
  const std::int64_t got = co_await fs->Read(fd, bytes);
  co_await fs->Close(fd);
  co_return got;
}

// Writes `bytes` at `offset`: open, seek, write, close.  Returns the bytes
// written, or -1 if `path` cannot be opened.
inline osim::Task<std::int64_t> ExportedWrite(osfs::Vfs* fs,
                                              const std::string& path,
                                              std::uint64_t offset,
                                              std::uint64_t bytes) {
  const int fd = co_await fs->Open(path, /*direct_io=*/false);
  if (fd < 0) {
    co_return -1;
  }
  (void)co_await fs->Llseek(fd, offset);
  const std::int64_t wrote = co_await fs->Write(fd, bytes);
  co_await fs->Close(fd);
  co_return wrote;
}

// Creates `path` and closes it again.  Returns Create's descriptor, -1 on
// failure.
inline osim::Task<int> ExportedCreate(osfs::Vfs* fs, const std::string& path) {
  const int fd = co_await fs->Create(path);
  if (fd >= 0) {
    co_await fs->Close(fd);
  }
  co_return fd;
}

// Writes `path`'s dirty pages back: open, fsync, close.
inline osim::Task<void> ExportedFlush(osfs::Vfs* fs, const std::string& path) {
  const int fd = co_await fs->Open(path, /*direct_io=*/false);
  if (fd >= 0) {
    co_await fs->Fsync(fd);
    co_await fs->Close(fd);
  }
}

}  // namespace osnet

#endif  // OSPROF_SRC_NET_EXPORTED_H_
