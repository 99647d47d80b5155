// A stackable profiling layer (paper Figure 2, "User Level Profiler" /
// nullfs-style layered profiling).
//
// Wraps any Vfs and records the latency of every operation that crosses
// the boundary into its own SimProfiler, under the same ten names Vfs
// times every file system with.  Stacking one of these above an
// in-fs-instrumented Ext2SimFs gives the two-layer view the paper uses to
// separate VFS/syscall overhead from lower-file-system behaviour:
// comparing the layers' profiles isolates where time is spent.

#ifndef OSPROF_SRC_FS_PROFILED_VFS_H_
#define OSPROF_SRC_FS_PROFILED_VFS_H_

#include <string>

#include "src/fs/vfs.h"

namespace osfs {

class ProfiledVfs : public Vfs {
 public:
  ProfiledVfs(Vfs* inner, SimProfiler* profiler) : inner_(inner) {
    SetProfiler(profiler);
  }

 protected:
  // Each body is the inner layer's operation; Vfs times it.
  Task<int> OpenImpl(const std::string& path, bool direct_io) override {
    return inner_->Open(path, direct_io);
  }
  Task<void> CloseImpl(int fd) override { return inner_->Close(fd); }
  Task<std::int64_t> ReadImpl(int fd, std::uint64_t bytes) override {
    return inner_->Read(fd, bytes);
  }
  Task<std::int64_t> WriteImpl(int fd, std::uint64_t bytes) override {
    return inner_->Write(fd, bytes);
  }
  Task<std::uint64_t> LlseekImpl(int fd, std::uint64_t pos) override {
    return inner_->Llseek(fd, pos);
  }
  Task<DirentBatch> ReaddirImpl(int fd, std::uint64_t* /*value*/) override {
    return inner_->Readdir(fd);
  }
  Task<void> FsyncImpl(int fd) override { return inner_->Fsync(fd); }
  Task<int> CreateImpl(const std::string& path) override {
    return inner_->Create(path);
  }
  Task<void> UnlinkImpl(const std::string& path) override {
    return inner_->Unlink(path);
  }
  Task<FileAttr> StatImpl(const std::string& path) override {
    return inner_->Stat(path);
  }

 private:
  Vfs* inner_;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_PROFILED_VFS_H_
