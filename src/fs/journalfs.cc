#include "src/fs/journalfs.h"

namespace osfs {

JournalFs::JournalFs(osim::Kernel* kernel, osim::SimDisk* disk,
                     Ext2Config config, JournalConfig journal)
    : Ext2SimFs(kernel, disk, config),
      journal_(journal),
      super_lock_(kernel, 1, "reiserfs_super_lock"),
      write_super_count_(*kernel, "journal.write_super_count") {}

Task<std::int64_t> JournalFs::ReadImpl(int fd, std::uint64_t bytes) {
  // The coarse lock covers the read path; while write_super commits the
  // journal, reads queue behind it (Figure 9's vertical stripes).
  co_await kernel_->Cpu(config_.costs.sem_op);
  co_await super_lock_.Acquire();
  std::int64_t result;
  try {
    result = co_await Ext2SimFs::ReadImpl(fd, bytes);
  } catch (...) {
    super_lock_.Release();
    throw;
  }
  co_await kernel_->Cpu(config_.costs.sem_op);
  super_lock_.Release();
  co_return result;
}

Task<void> JournalFs::WriteSuper() {
  return WrapIfAttached(profiler_, probes_.write_super, WriteSuperImpl());
}

Task<void> JournalFs::WriteSuperImpl() {
  co_await kernel_->Cpu(config_.costs.sem_op);
  co_await super_lock_.Acquire();
  co_await kernel_->Cpu(journal_.commit_cpu);
  // Commit: a burst of synchronous journal writes.  Each lands in the
  // journal area; the first pays a seek, the rest rotation + transfer, for
  // a hold time of tens of milliseconds.
  for (int i = 0; i < journal_.commit_pages; ++i) {
    const std::uint64_t lba =
        journal_.journal_lba + static_cast<std::uint64_t>(i) * kBlocksPerPage;
    (void)co_await disk_->SyncWrite(lba, kBlocksPerPage);
  }
  ++OSIM_SHARED_RW(write_super_count_);
  co_await kernel_->Cpu(config_.costs.sem_op);
  super_lock_.Release();
}

namespace {
Task<void> SuperDaemonBody(osim::Kernel* kernel, JournalFs* fs,
                           osim::Cycles interval) {
  while (true) {
    co_await kernel->Sleep(interval);
    co_await fs->WriteSuper();
  }
}
}  // namespace

void JournalFs::SpawnSuperDaemon() {
  kernel_->Spawn("reiserfs_flusher",
                 SuperDaemonBody(kernel_, this, journal_.super_interval));
}

}  // namespace osfs
