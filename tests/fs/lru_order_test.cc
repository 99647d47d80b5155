// Pins the page cache's LRU: a scripted run of hits, misses and inserts
// over more pages than the capacity evicts pages in a fixed order.  A hit
// moves its page to the most-recently-used end; eviction takes the other.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/fs/page_cache.h"
#include "src/sim/disk.h"
#include "src/sim/kernel.h"

namespace osfs {
namespace {

TEST(LruOrder, ScriptedHitsAndMissesEvictInOrder) {
  osim::KernelConfig kcfg;
  kcfg.timer_tick_period = 0;
  osim::Kernel k(kcfg);
  osim::SimDisk disk(&k);
  PageCache cache(&k, &disk, /*capacity_pages=*/4);
  constexpr int kPages = 10;
  // "d<p>" dirties page p (an insert, or a touch if resident); "h<p>" is a
  // lookup (a hit that touches, or a miss).  Dirty pages make residency
  // observable through IsDirty, which does not touch.
  const std::vector<std::string> script = {
      "d0", "d1", "d2", "d3", "h0", "d4", "h2", "h1", "d5", "h0",
      "h4", "d6", "d7", "h4", "d8", "d2", "h9", "h6", "d9", "h7",
      "d1", "h8", "d0", "h1", "d3",
  };
  std::vector<bool> resident(kPages, false);
  std::vector<int> evicted;
  for (const std::string& op : script) {
    const int page = op[1] - '0';
    const PageKey key{1, static_cast<std::uint64_t>(page)};
    if (op[0] == 'd') {
      cache.MarkDirty(key, 1'000 + 8 * static_cast<std::uint64_t>(page));
    } else {
      (void)cache.Contains(key);
    }
    for (int p = 0; p < kPages; ++p) {
      const bool now =
          cache.IsDirty(PageKey{1, static_cast<std::uint64_t>(p)});
      if (resident[static_cast<std::size_t>(p)] && !now) {
        evicted.push_back(p);
      }
      resident[static_cast<std::size_t>(p)] = now;
    }
  }
  EXPECT_EQ(evicted, (std::vector<int>{1, 3, 2, 5, 0, 6, 7, 4, 2, 9}));
  EXPECT_EQ(cache.evictions(), 10u);
  EXPECT_EQ(cache.hits(), 7u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.resident_pages(), 4u);
  EXPECT_EQ(cache.writebacks(), 10u);  // Every evicted page was dirty.
}

}  // namespace
}  // namespace osfs
