// An NTFS-like simulated file system with Windows I/O-manager semantics.
//
// Two behaviours from the paper distinguish it from the Ext2 model:
//
//  * §4 ("Windows file-system-level profilers"): most I/O requests are
//    described by an IRP, whose allocation/dispatch overhead dominates
//    cheap cached operations, so Windows provides Fast I/O to bypass the
//    intermediate layers when data is cached.  Reads here take the cheap
//    Fast I/O path on page-cache hits and the expensive IRP path
//    otherwise -- giving the characteristically bimodal Windows read
//    profile even before the disk is involved.
//
//  * §6.1: "We ran the same workload on a Windows NTFS le system and
//    found no lock contention.  This is because keeping the current le
//    position consistent is left to user-level applications on Windows."
//    Llseek (SetFilePointer) only updates the handle's position; O_DIRECT
//    reads do not serialize on an inode semaphore.

#ifndef OSPROF_SRC_FS_NTFS_H_
#define OSPROF_SRC_FS_NTFS_H_

#include "src/fs/ext2fs.h"

namespace osfs {

struct NtfsCosts {
  // Fast I/O: a direct call into the cache manager.
  osim::Cycles fast_io_read = 900;
  // IRP path: allocate the packet, walk the driver stack, complete it.
  osim::Cycles irp_build = 2'500;
  osim::Cycles irp_complete = 1'200;
  // SetFilePointer: per-handle update, no shared lock.
  osim::Cycles set_file_pointer = 130;
};

class NtfsSimFs : public Ext2SimFs {
 public:
  NtfsSimFs(osim::Kernel* kernel, osim::SimDisk* disk, Ext2Config config = {},
            NtfsCosts ntfs_costs = {});

  // Statistics for tests/benches.
  std::uint64_t fast_io_reads() const { return fast_io_; }
  std::uint64_t irp_reads() const { return irps_; }

 protected:
  Task<std::int64_t> ReadImpl(int fd, std::uint64_t bytes) override;
  // SetFilePointer semantics: never takes a shared lock.
  Task<std::uint64_t> LlseekImpl(int fd, std::uint64_t pos) override;

 private:
  NtfsCosts ntfs_costs_;
  std::uint64_t fast_io_ = 0;
  std::uint64_t irps_ = 0;
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_NTFS_H_
