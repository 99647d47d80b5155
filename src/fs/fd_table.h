// A file-descriptor table: open files indexed by descriptor, handing out
// the lowest free descriptor first, as POSIX open(2) does.
//
// Slots live in a deque, so a reference to an open file stays valid while
// other descriptors open and close -- simulated operations hold one across
// awaits.  Closed descriptors wait in a min-heap, so allocation never scans
// the table (the scale_1m workload keeps thousands of files open at once).
// A closed slot keeps its contents until its descriptor is reused.
//
// Allocation is single-turn atomic (no await between finding a descriptor
// and claiming it), so the table is deliberately not a race-checked
// Shared cell (see src/sim/race_tracker.h).

#ifndef OSPROF_SRC_FS_FD_TABLE_H_
#define OSPROF_SRC_FS_FD_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace osfs {

template <typename File>
class FdTable {
 public:
  // Stores `file` under the lowest free descriptor and returns it.
  int Open(File file) {
    if (free_.empty()) {
      slots_.push_back(Slot{std::move(file), true});
      return static_cast<int>(slots_.size() - 1);
    }
    std::pop_heap(free_.begin(), free_.end(), std::greater<>());
    const int fd = free_.back();
    free_.pop_back();
    slots_[static_cast<std::size_t>(fd)] = Slot{std::move(file), true};
    return fd;
  }

  // The open file behind `fd`; throws std::invalid_argument if `fd` is not
  // open.
  File& at(int fd) {
    if (fd < 0 || static_cast<std::size_t>(fd) >= slots_.size() ||
        !slots_[static_cast<std::size_t>(fd)].open) {
      throw std::invalid_argument("bad file descriptor");
    }
    return slots_[static_cast<std::size_t>(fd)].file;
  }

  // Frees `fd` for reuse; throws std::invalid_argument if it is not open.
  void Close(int fd) {
    at(fd);
    slots_[static_cast<std::size_t>(fd)].open = false;
    free_.push_back(fd);
    std::push_heap(free_.begin(), free_.end(), std::greater<>());
  }

  int open_count() const {
    return static_cast<int>(slots_.size() - free_.size());
  }

 private:
  struct Slot {
    File file;
    bool open = false;
  };

  std::deque<Slot> slots_;
  std::vector<int> free_;  // Min-heap of closed descriptors.
};

}  // namespace osfs

#endif  // OSPROF_SRC_FS_FD_TABLE_H_
