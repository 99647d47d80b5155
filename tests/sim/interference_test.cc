// The interference channel: subscription-order determinism, idempotent
// subscribe/unsubscribe, stable kind names, and -- the refactor's core
// claim -- that attaching an observer does not perturb the simulation.

#include "src/sim/interference.h"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/kernel.h"

namespace osim {
namespace {

struct RecordingSubscriber : InterferenceSubscriber {
  RecordingSubscriber(std::string tag, std::vector<std::string>* log)
      : tag(std::move(tag)), log(log) {}
  void OnInterference(const InterferenceEvent& event) override {
    log->push_back(tag + ":" + InterferenceKindName(event.kind) + "@" +
                   std::to_string(event.now));
    events.push_back(event);
  }
  std::string tag;
  std::vector<std::string>* log;
  std::vector<InterferenceEvent> events;
};

// Context-free emits (Park/Preempt/TimerTicks) need no Bind, so a bare
// channel exercises the fan-out machinery in isolation.
void EmitThree(InterferenceChannel& channel) {
  channel.Park(7, osprof::kLayerLockWait, 50);
  channel.Preempt(7, 0, 100);
  channel.TimerTicks(7, 3, 30, 200);
}

TEST(InterferenceChannel, DeliversInSubscriptionOrder) {
  InterferenceChannel ab;
  std::vector<std::string> log_ab;
  RecordingSubscriber a("A", &log_ab);
  RecordingSubscriber b("B", &log_ab);
  ab.Subscribe(&a);
  ab.Subscribe(&b);
  EmitThree(ab);
  EXPECT_EQ(log_ab, (std::vector<std::string>{
                        "A:park@50", "B:park@50", "A:preempt@100",
                        "B:preempt@100", "A:timer_tick@200",
                        "B:timer_tick@200"}));

  InterferenceChannel ba;
  std::vector<std::string> log_ba;
  RecordingSubscriber a2("A", &log_ba);
  RecordingSubscriber b2("B", &log_ba);
  ba.Subscribe(&b2);
  ba.Subscribe(&a2);
  EmitThree(ba);
  EXPECT_EQ(log_ba, (std::vector<std::string>{
                        "B:park@50", "A:park@50", "B:preempt@100",
                        "A:preempt@100", "B:timer_tick@200",
                        "A:timer_tick@200"}));

  // Only the interleaving depends on subscription order; every subscriber
  // observes the identical event sequence either way.
  ASSERT_EQ(a.events.size(), a2.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, a2.events[i].kind) << i;
    EXPECT_EQ(a.events[i].now, a2.events[i].now) << i;
    EXPECT_EQ(a.events[i].thread_id, a2.events[i].thread_id) << i;
    EXPECT_EQ(a.events[i].cycles, a2.events[i].cycles) << i;
    EXPECT_EQ(a.events[i].count, a2.events[i].count) << i;
  }
}

TEST(InterferenceChannel, SubscribeIsIdempotentAndUnsubscribeRemoves) {
  InterferenceChannel channel;
  std::vector<std::string> log;
  RecordingSubscriber a("A", &log);
  EXPECT_FALSE(channel.has_subscribers());
  channel.Subscribe(&a);
  channel.Subscribe(&a);  // Idempotent: no double delivery.
  EXPECT_TRUE(channel.has_subscribers());
  channel.Preempt(1, 0, 10);
  EXPECT_EQ(log.size(), 1u);
  channel.Unsubscribe(&a);
  EXPECT_FALSE(channel.has_subscribers());
  channel.Preempt(1, 0, 20);
  EXPECT_EQ(log.size(), 1u);
  channel.Unsubscribe(&a);  // Removing twice is harmless.
}

TEST(InterferenceChannel, KindNamesAreStable) {
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kPark), "park");
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kWakeup), "wakeup");
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kDispatch), "dispatch");
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kMigrate), "migrate");
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kPreempt), "preempt");
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kTimerTick),
               "timer_tick");
  EXPECT_STREQ(InterferenceKindName(InterferenceKind::kLockHandoff),
               "lock_handoff");
}

// A subscriber with a programmable callback.
struct HookSubscriber : InterferenceSubscriber {
  explicit HookSubscriber(std::string tag, std::vector<std::string>* log)
      : tag(std::move(tag)), log(log) {}
  void OnInterference(const InterferenceEvent& event) override {
    log->push_back(tag + "@" + std::to_string(event.now));
    if (hook) {
      hook(event);
    }
  }
  std::string tag;
  std::vector<std::string>* log;
  std::function<void(const InterferenceEvent&)> hook;
};

// Subscribing and unsubscribing are setup-time calls: from inside a
// callback, nested publishes included, both throw and change nothing.  A
// nested publish reaches every subscriber, and once the outermost
// publish returns both calls work again.
TEST(InterferenceChannel, SubscriptionChangesDuringPublishThrow) {
  InterferenceChannel channel;
  std::vector<std::string> log;
  HookSubscriber a("A", &log);
  HookSubscriber b("B", &log);
  HookSubscriber c("C", &log);
  channel.Subscribe(&a);
  channel.Subscribe(&b);
  a.hook = [&](const InterferenceEvent& event) {
    if (event.now == 10) {
      channel.Preempt(2, 0, 15);
    }
    EXPECT_THROW(channel.Subscribe(&c), std::logic_error);
    EXPECT_THROW(channel.Unsubscribe(&b), std::logic_error);
  };
  channel.Preempt(1, 0, 10);
  EXPECT_EQ(log, (std::vector<std::string>{"A@10", "A@15", "B@15", "B@10"}));
  a.hook = nullptr;
  channel.Unsubscribe(&b);
  channel.Subscribe(&c);
  channel.Preempt(1, 0, 20);
  EXPECT_EQ(log, (std::vector<std::string>{"A@10", "A@15", "B@15", "B@10",
                                           "A@20", "C@20"}));
}

Task<void> BurnLoop(Kernel& k, int iterations, Cycles per_iter) {
  for (int i = 0; i < iterations; ++i) {
    co_await k.Cpu(per_iter);
  }
}

KernelConfig ContendedConfig() {
  KernelConfig cfg;
  cfg.num_cpus = 1;
  cfg.quantum = 1'000;
  cfg.seed = 9;
  return cfg;
}

// Publishing consumes no simulated time, so a run with an observer
// attached must replay the bare run event for event: same end time, same
// preemption count -- and the observer's preempt tally must equal the
// kernel's own counter.
TEST(InterferenceChannel, ObserverDoesNotPerturbTheSimulation) {
  Kernel bare(ContendedConfig());
  bare.Spawn("a", BurnLoop(bare, 40, 100));
  bare.Spawn("b", BurnLoop(bare, 40, 100));
  bare.RunUntilThreadsFinish();
  const Cycles bare_end = bare.now();
  const std::uint64_t bare_preemptions = bare.total_forced_preemptions();
  EXPECT_GT(bare_preemptions, 0u);

  Kernel observed(ContendedConfig());
  std::vector<std::string> log;
  RecordingSubscriber spy("S", &log);
  observed.channel().Subscribe(&spy);
  observed.Spawn("a", BurnLoop(observed, 40, 100));
  observed.Spawn("b", BurnLoop(observed, 40, 100));
  observed.RunUntilThreadsFinish();

  EXPECT_EQ(observed.now(), bare_end);
  EXPECT_EQ(observed.total_forced_preemptions(), bare_preemptions);
  std::uint64_t preempts_seen = 0;
  std::uint64_t dispatches_seen = 0;
  for (const InterferenceEvent& event : spy.events) {
    preempts_seen += event.kind == InterferenceKind::kPreempt ? 1 : 0;
    dispatches_seen += event.kind == InterferenceKind::kDispatch ? 1 : 0;
  }
  EXPECT_EQ(preempts_seen, bare_preemptions);
  // Every preemption re-dispatches the victim, plus each thread's first
  // dispatch: the channel saw the scheduler's full decision stream.
  EXPECT_GE(dispatches_seen, preempts_seen + 2);
  observed.channel().Unsubscribe(&spy);
}

}  // namespace
}  // namespace osim
