// The counting operator new behind perfbench_trace (count_new.cc).

#ifndef OSPROF_PERFBENCH_COUNT_NEW_H_
#define OSPROF_PERFBENCH_COUNT_NEW_H_

#include <cstdint>

namespace perfbench {

// Turns counting on or off; off by default, so the process's start-up
// allocations are not counted.
void SetAllocationCounting(bool on);

// Allocations counted so far.
std::uint64_t AllocationCount();

}  // namespace perfbench

#endif  // OSPROF_PERFBENCH_COUNT_NEW_H_
