// The client side every network mount shares (paper Figure 2: CIFS and
// the NFS path beside it).
//
// RemoteMount is the one network client core: it keeps the table of open
// remote files, one race-checked client page cache, and the Close,
// Llseek, Read and Readdir bodies.  A protocol (CifsMount, NfsMount)
// derives from it and supplies how a missing page and the next directory
// entries reach the client -- FetchPage, FetchEntries -- plus the
// operations that always talk to the server.  What the server does on the
// exported file system lives in src/net/exported.h.

#ifndef OSPROF_SRC_NET_REMOTE_MOUNT_H_
#define OSPROF_SRC_NET_REMOTE_MOUNT_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fs/fd_table.h"
#include "src/fs/page_cache.h"
#include "src/fs/vfs.h"
#include "src/sim/kernel.h"
#include "src/sim/race_tracker.h"
#include "src/sim/task.h"

namespace osnet {

using osim::Task;

class RemoteMount : public osfs::Vfs {
 protected:
  // What the client has listed of a directory so far.
  struct RemoteDir {
    std::vector<std::string> names;  // Fetched so far.
    std::size_t served = 0;          // Entries already returned to caller.
    std::uint64_t cookie = 0;        // Server-side resume position.
    bool end_of_dir = false;
    bool started = false;            // CIFS: FindFirst has run.
  };

  // One open remote file.  Descriptors live in a deque-backed FdTable, so
  // a reference stays valid across the awaits of an operation on it.
  struct RemoteFile {
    std::string path;
    // The mount-wide id of `path`: every open of one path gets the same.
    int path_id = 0;
    std::uint64_t pos = 0;
    osfs::FileAttr attr;
    RemoteDir dir;
  };

  // `server_fs` is the file system the server exports.  `client_op_cpu`
  // is the client's CPU per operation; Readdir returns at most
  // `readdir_batch` entries and pays `readdir_entry_cpu` for each.
  RemoteMount(osim::Kernel* kernel, osfs::Vfs* server_fs,
              osim::Cycles client_op_cpu, int readdir_batch,
              osim::Cycles readdir_entry_cpu, const char* page_cache_name);

  // Opens a descriptor on `path`, whose attributes are `attr`.
  int OpenRemote(const std::string& path, osfs::FileAttr attr) {
    const auto next_id = static_cast<int>(path_ids_.size());
    const int id = path_ids_.try_emplace(path, next_id).first->second;
    return fds_.Open(RemoteFile{path, id, 0, attr, {}});
  }
  RemoteFile& file(int fd) { return fds_.at(fd); }

  // Brings page `page` of `path` to the client; Read caches it after.
  virtual Task<void> FetchPage(const std::string& path,
                               std::uint64_t page) = 0;
  // Appends the directory's next entries to `dir` and advances its
  // cookie and end_of_dir.
  virtual Task<void> FetchEntries(const std::string& path,
                                  RemoteDir* dir) = 0;

  Task<void> CloseImpl(int fd) final;
  Task<std::int64_t> ReadImpl(int fd, std::uint64_t bytes) final;
  Task<std::uint64_t> LlseekImpl(int fd, std::uint64_t pos) final;
  Task<osfs::DirentBatch> ReaddirImpl(int fd, std::uint64_t* value) final;

  osim::Kernel* kernel_;
  osfs::Vfs* server_fs_;

 private:
  osim::Cycles client_op_cpu_;
  std::size_t readdir_batch_;
  osim::Cycles readdir_entry_cpu_;
  osfs::FdTable<RemoteFile> fds_;
  // One id per distinct path opened, so the page cache's key is two
  // integers and a lookup copies no path.
  std::unordered_map<std::string, int> path_ids_;
  // The pages cached on the client, keyed {path id, page}.  Filled after
  // a fetch that spans a network round trip, so an unsynchronized access
  // is a real race.
  osim::Shared<std::set<osfs::PageKey>> page_cache_;
};

}  // namespace osnet

#endif  // OSPROF_SRC_NET_REMOTE_MOUNT_H_
