// SimRace unit tests: the FastTrack-style happens-before engine over
// simulated tasks.  Each test builds a tiny kernel, runs coroutines that
// touch a Shared<T> cell across await points, and asserts on the deduped
// report set -- true positives for unsynchronized cross-await protocols,
// zero reports when a spawn edge, lock hand-off, exit-to-root join, or
// adopted causality token orders the accesses.

#include "src/sim/race_tracker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "src/sim/kernel.h"
#include "src/sim/sync.h"

namespace osim {
namespace {

KernelConfig QuietConfig(int cpus = 2) {
  KernelConfig cfg;
  cfg.num_cpus = cpus;
  cfg.context_switch_cost = 0;
  cfg.timer_tick_period = 0;
  cfg.seed = 7;
  return cfg;
}

// The canonical racy protocol: read, await, write-back.  The await is the
// point where another task's turn can interleave.
Task<void> RacyIncrement(Kernel* k, Shared<std::uint64_t>* cell, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t seen = OSIM_SHARED_RO(*cell);
    co_await k->Cpu(1'000);
    OSIM_SHARED_RW(*cell) = seen + 1;
    co_await k->Sleep(500);
  }
}

// The same protocol with the read-modify-write under a semaphore: the
// release->acquire clock hand-off must order every pair of accesses.
Task<void> LockedIncrement(Kernel* k, Shared<std::uint64_t>* cell,
                           SimSemaphore* lock, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await lock->Acquire();
    const std::uint64_t seen = OSIM_SHARED_RO(*cell);
    co_await k->Cpu(1'000);
    OSIM_SHARED_RW(*cell) = seen + 1;
    lock->Release();
    co_await k->Sleep(500);
  }
}

Task<void> WriteOnce(Shared<std::uint64_t>* cell, std::uint64_t value) {
  OSIM_SHARED_RW(*cell) = value;
  co_return;
}

Task<void> ReadOnce(Shared<std::uint64_t>* cell, std::uint64_t* out) {
  *out = OSIM_SHARED_RO(*cell);
  co_return;
}

// Writes the cell, exports a causality token, then parks -- the simulated
// analogue of a task that issued an async request and is waiting on it.
Task<void> WriteCaptureAndPark(Kernel* k, Shared<std::uint64_t>* cell,
                               RaceClock* token) {
  OSIM_SHARED_RW(*cell) = 42;
  *token = k->races().Capture();
  co_await k->Sleep(1'000'000);
}

// The smbd pattern: a request handler spawned by a delivery, which
// updates the shared cell under the shared lock and wakes its client.
Task<void> HandleRequest(Kernel* k, Shared<std::uint64_t>* cell,
                         SimSemaphore* lock, WaitQueue* replies,
                         bool* replied) {
  co_await lock->Acquire();
  const std::uint64_t seen = OSIM_SHARED_RO(*cell);
  co_await k->Cpu(100);
  OSIM_SHARED_RW(*cell) = seen + 1;
  lock->Release();
  *replied = true;
  replies->WakeOne();
}

// Sends `requests` requests one after another.  Each delivery is a
// kernel-context callback that adopts the send's token and spawns a
// handler, as the CIFS server does.
Task<void> SendRequests(Kernel* k, Shared<std::uint64_t>* cell,
                        SimSemaphore* lock, WaitQueue* replies,
                        int requests) {
  for (int i = 0; i < requests; ++i) {
    bool replied = false;
    k->events().After(1'000, [k, cell, lock, replies, &replied,
                              token = k->races().Capture()] {
      k->races().Adopt(token);
      k->Spawn("smbd", HandleRequest(k, cell, lock, replies, &replied));
      k->races().Drop();
    });
    while (!replied) {
      co_await replies->Wait();
    }
  }
}

Task<void> WriteUnderLockAndPark(Kernel* k, Shared<std::uint64_t>* cell,
                                 SimSemaphore* lock) {
  co_await lock->Acquire();
  OSIM_SHARED_RW(*cell) = 1;
  lock->Release();
  co_await k->Sleep(1'000'000);
}

Task<void> ReadUnderLock(Shared<std::uint64_t>* cell, SimSemaphore* lock,
                         std::uint64_t* out) {
  co_await lock->Acquire();
  *out = OSIM_SHARED_RO(*cell);
  lock->Release();
}

Task<void> AwaitWakeThenWrite(WaitQueue* queue, Shared<std::uint64_t>* cell) {
  co_await queue->Wait();
  OSIM_SHARED_RW(*cell) = 3;
}

Task<void> WakeOneWaiter(WaitQueue* queue) {
  queue->WakeOne();
  co_return;
}

bool AnyReportMentions(const std::vector<std::string>& reports,
                       const std::string& needle) {
  for (const std::string& report : reports) {
    if (report.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(RaceTracker, DisabledTrackerIsInert) {
  Kernel k(QuietConfig());
  ASSERT_FALSE(k.races().enabled());
  Shared<std::uint64_t> cell(k, "inert.cell");
  k.Spawn("a", RacyIncrement(&k, &cell, 3));
  k.Spawn("b", RacyIncrement(&k, &cell, 3));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(k.races().RacesFound());
  EXPECT_EQ(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 0u);
  EXPECT_TRUE(k.races().Capture().empty());
}

TEST(RaceTracker, UnsynchronizedCrossAwaitIncrementRaces) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "counter.cell");
  k.Spawn("a", RacyIncrement(&k, &cell, 2));
  k.Spawn("b", RacyIncrement(&k, &cell, 2));
  k.RunUntilThreadsFinish();

  const std::vector<std::string> reports = k.races().ReportDescriptions();
  ASSERT_TRUE(k.races().RacesFound());
  // Every report names the cell and the access site; with no profiler
  // attached the op annotation degrades to "(no op)".
  for (const std::string& report : reports) {
    EXPECT_NE(report.find("counter.cell@RacyIncrement"), std::string::npos)
        << report;
    EXPECT_NE(report.find("(no op)"), std::string::npos) << report;
  }
  // The racy loop repeats, but the (site, op) dedupe key collapses the
  // repetitions: far fewer reports than racy access pairs.
  EXPECT_GE(k.races().racy_accesses(), k.races().report_count());
  EXPECT_GT(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 1u);
}

TEST(RaceTracker, SemaphoreHandoffOrdersTheSameProtocol) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "locked.cell");
  SimSemaphore lock(&k, 1, "cell_lock");
  k.Spawn("a", LockedIncrement(&k, &cell, &lock, 3));
  k.Spawn("b", LockedIncrement(&k, &cell, &lock, 3));
  k.RunUntilThreadsFinish();
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
  EXPECT_GT(k.races().accesses_checked(), 0u);
}

// A spawn edge orders the parent's *prior* accesses before the child, but
// deliberately not the parent's later ones (the spawn is a send).
Task<void> SpawnThenWriteAgain(Kernel* k, Shared<std::uint64_t>* cell,
                               std::uint64_t* child_saw) {
  OSIM_SHARED_RW(*cell) = 1;  // Ordered before the child via the spawn.
  k->Spawn("child", ReadOnce(cell, child_saw));
  co_await k->Cpu(10'000);
  OSIM_SHARED_RW(*cell) = 2;  // Concurrent with the child's read.
}

TEST(RaceTracker, SpawnOrdersPriorWorkButNotLaterWork) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "spawn.cell");
  std::uint64_t child_saw = 0;
  k.Spawn("parent", SpawnThenWriteAgain(&k, &cell, &child_saw));
  k.RunUntilThreadsFinish();

  const std::vector<std::string> reports = k.races().ReportDescriptions();
  // Exactly one deduped race: the child's read against the parent's
  // post-spawn write.  The pre-spawn write is happens-before ordered.
  ASSERT_EQ(reports.size(), 1u) << (reports.empty() ? "" : reports[0]);
  EXPECT_TRUE(AnyReportMentions(reports, "read spawn.cell@ReadOnce"));
  EXPECT_TRUE(
      AnyReportMentions(reports, "write spawn.cell@SpawnThenWriteAgain"));
}

TEST(RaceTracker, ExitJoinsRootSoSequentialPhasesAreOrdered) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "phase.cell");
  k.Spawn("writer", WriteOnce(&cell, 7));
  k.RunUntilThreadsFinish();
  // The writer exited, so its history lives in the root clock: a task
  // spawned from host context afterwards is ordered after it.
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 7u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
}

TEST(RaceTracker, HostSpawnWithoutTokenRacesAgainstParkedWriter) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "token.cell");
  RaceClock token;
  k.Spawn("writer", WriteCaptureAndPark(&k, &cell, &token));
  k.RunUntil(10'000);  // Writer has written and parked, not exited.
  ASSERT_FALSE(token.empty());

  // No token adopted: the host-context spawn joins only the (empty)
  // root clock, so the reader appears causally detached from the writer.
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.RunUntilThreadsFinish();
  EXPECT_TRUE(k.races().RacesFound());
  EXPECT_TRUE(AnyReportMentions(k.races().ReportDescriptions(),
                                "write token.cell@WriteCaptureAndPark"));
}

TEST(RaceTracker, AdoptedTokenOrdersCompletionWork) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "token.cell");
  RaceClock token;
  k.Spawn("writer", WriteCaptureAndPark(&k, &cell, &token));
  k.RunUntil(10'000);
  ASSERT_FALSE(token.empty());

  // The disk/net completion pattern: adopt the submitter's captured
  // history around the callback, and everything spawned inside inherits
  // it -- the reader is now ordered after the parked writer's write.
  k.races().Adopt(token);
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.races().Drop();
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 42u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
}

// An empty token (a completion whose submit ran untracked) still pairs
// with its Drop: dropping it must not drop the outer adoption's history.
TEST(RaceTracker, EmptyTokenAdoptionPairsWithItsDrop) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "nested.cell");
  RaceClock token;
  k.Spawn("writer", WriteCaptureAndPark(&k, &cell, &token));
  k.RunUntil(10'000);
  ASSERT_FALSE(token.empty());

  k.races().Adopt(token);
  k.races().Adopt(RaceClock{});
  k.races().Drop();
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadOnce(&cell, &saw));  // Inside the outer adoption.
  k.races().Drop();
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 42u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
}

// Tracking switched on after both tasks were spawned: the wake is the
// first sighting of both, so one hook seeds the wakee's clock and then
// the waker's, which grows the clock table.  Run under the asan preset,
// this catches a wakee clock reference held across that growth.
TEST(RaceTracker, WakeSeedsBothClocksOfTasksSpawnedBeforeTracking) {
  Kernel k(QuietConfig());
  WaitQueue queue(&k);
  Shared<std::uint64_t> cell(k, "wake.cell");
  k.Spawn("sleeper", AwaitWakeThenWrite(&queue, &cell));  // tid 0
  k.Spawn("waker", WakeOneWaiter(&queue));                // tid 1
  k.races().set_enabled(true);
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.races().accesses_checked(), 1u);
  EXPECT_FALSE(k.races().RacesFound());
}

// A lock built where a destroyed lock lived starts with no release
// history: the reader below is ordered after the writer only through
// the dead lock, so it must race.
TEST(RaceTracker, LockAtADestroyedLocksAddressInheritsNoHistory) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "reused.cell");
  alignas(SimSemaphore) unsigned char storage[sizeof(SimSemaphore)];
  auto* a = new (storage) SimSemaphore(&k, 1, "a_lock");
  k.Spawn("writer", WriteUnderLockAndPark(&k, &cell, a));
  k.RunUntil(10'000);  // Written under `a`, released, parked.
  a->~SimSemaphore();

  auto* b = new (storage) SimSemaphore(&k, 1, "b_lock");
  ASSERT_EQ(static_cast<void*>(a), static_cast<void*>(b));
  std::uint64_t saw = 0;
  k.Spawn("reader", ReadUnderLock(&cell, b, &saw));
  k.RunUntilThreadsFinish();
  b->~SimSemaphore();
  EXPECT_EQ(saw, 1u);
  EXPECT_EQ(k.races().report_count(), 1u);
  EXPECT_TRUE(AnyReportMentions(k.races().ReportDescriptions(),
                                "write reused.cell@WriteUnderLockAndPark"));
}

// Clock storage follows what is live, not every task ever spawned: 5,000
// handlers served one after another leave a few entries each.  Dense
// per-task clocks would hold about 12.5M entries here.
TEST(RaceTracker, ClockEntriesStayLinearInTasksSpawned) {
  constexpr int kRequests = 5'000;
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "smbd.cell");
  SimSemaphore lock(&k, 1, "smbd_lock");
  WaitQueue replies(&k);
  k.Spawn("client", SendRequests(&k, &cell, &lock, &replies, kRequests));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(k.spawned_threads(), static_cast<std::uint64_t>(kRequests) + 1);
  EXPECT_EQ(k.races().accesses_checked(), 2u * kRequests);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
  EXPECT_LE(k.races().clock_entries(), 4u * kRequests);
}

TEST(RaceTracker, ResetClearsStateAndInvalidatesCellsLazily) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "reset.cell");
  k.Spawn("a", RacyIncrement(&k, &cell, 2));
  k.Spawn("b", RacyIncrement(&k, &cell, 2));
  k.RunUntilThreadsFinish();
  ASSERT_TRUE(k.races().RacesFound());

  k.races().Reset();
  EXPECT_FALSE(k.races().RacesFound());
  EXPECT_EQ(k.races().report_count(), 0u);
  EXPECT_EQ(k.races().racy_accesses(), 0u);
  EXPECT_EQ(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 0u);
  EXPECT_TRUE(k.races().enabled()) << "Reset must not flip the enable bit";

  // The same cell is usable after Reset: the generation bump clears its
  // stale epochs on next touch, and an ordered access stays silent.
  std::uint64_t saw = 0;
  k.Spawn("writer", WriteOnce(&cell, 9));
  k.RunUntilThreadsFinish();
  k.Spawn("reader", ReadOnce(&cell, &saw));
  k.RunUntilThreadsFinish();
  EXPECT_EQ(saw, 9u);
  EXPECT_FALSE(k.races().RacesFound())
      << k.races().ReportDescriptions().front();
  EXPECT_EQ(k.races().cells_tracked(), 1u);
}

TEST(RaceTracker, KernelContextAccessesAreExempt) {
  Kernel k(QuietConfig());
  k.races().set_enabled(true);
  Shared<std::uint64_t> cell(k, "host.cell");
  // Host-side setup and introspection (mkfs-style code) run with no
  // current task: never checked, never reported.
  OSIM_SHARED_RW(cell) = 5;
  EXPECT_EQ(OSIM_SHARED_RO(cell), 5u);
  EXPECT_EQ(k.races().accesses_checked(), 0u);
  EXPECT_EQ(k.races().cells_tracked(), 0u);
  EXPECT_FALSE(k.races().RacesFound());
}

}  // namespace
}  // namespace osim
