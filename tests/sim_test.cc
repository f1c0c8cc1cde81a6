// Unit tests for the discrete-event simulation core.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/sim/cost_model.h"
#include "src/sim/cpu.h"
#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/simulator.h"

namespace remon {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, SameTimeEventsRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  TimeNs seen = -1;
  q.ScheduleAt(100, [&] {
    q.ScheduleAfter(50, [&] { seen = q.now(); });
  });
  q.RunAll();
  EXPECT_EQ(seen, 150);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventQueue::EventId id = q.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(q.Cancel(id));
  q.RunAll();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelledEventDoesNotAdvanceClock) {
  EventQueue q;
  EventQueue::EventId id = q.ScheduleAt(1000, [] {});
  q.ScheduleAt(10, [] {});
  q.Cancel(id);
  q.RunAll();
  EXPECT_EQ(q.now(), 10);
}

TEST(EventQueueTest, RunUntilStopsAtDeadline) {
  EventQueue q;
  int count = 0;
  q.ScheduleAt(10, [&] { ++count; });
  q.ScheduleAt(20, [&] { ++count; });
  q.ScheduleAt(30, [&] { ++count; });
  EXPECT_EQ(q.RunUntil(20), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(q.empty());
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      q.ScheduleAfter(1, chain);
    }
  };
  q.ScheduleAt(0, chain);
  q.RunAll();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(q.now(), 99);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next64() != b.Next64()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 10);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) {
      ++hits;
    }
  }
  EXPECT_NEAR(hits, 2500, 200);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.Fork();
  EXPECT_NE(a.Next64(), child.Next64());
}

TEST(CpuPoolTest, SingleEntityRunsBackToBack) {
  CpuPool pool(4, 1000);
  auto g1 = pool.Acquire(1, 0, 500, -1);
  // First acquisition charges a context switch (core previously idle/other).
  EXPECT_EQ(g1.start, 1000);
  EXPECT_EQ(g1.end, 1500);
  auto g2 = pool.Acquire(1, g1.end, 500, g1.core);
  EXPECT_FALSE(g2.context_switched);
  EXPECT_EQ(g2.start, 1500);
}

TEST(CpuPoolTest, DistinctEntitiesUseDistinctCores) {
  CpuPool pool(4, 100);
  auto g1 = pool.Acquire(1, 0, 1000, -1);
  auto g2 = pool.Acquire(2, 0, 1000, -1);
  EXPECT_NE(g1.core, g2.core);
  // Both start at the same (post-switch) time: true parallelism.
  EXPECT_EQ(g1.start, g2.start);
}

TEST(CpuPoolTest, OversubscriptionQueues) {
  CpuPool pool(1, 0);
  auto g1 = pool.Acquire(1, 0, 1000, -1);
  auto g2 = pool.Acquire(2, 0, 1000, -1);
  EXPECT_EQ(g2.start, g1.end);
}

TEST(CpuPoolTest, ContextSwitchCounted) {
  CpuPool pool(1, 50);
  pool.Acquire(1, 0, 10, -1);
  pool.Acquire(2, 0, 10, -1);
  pool.Acquire(1, 0, 10, -1);
  EXPECT_EQ(pool.context_switches(), 3u);
}

// The grant policy as a full scan on every call: the earliest-free core (lowest
// index on ties), replaced by the preferred core when that does not start later.
// CpuPool must grant exactly what this grants.
class FullScanPool {
 public:
  FullScanPool(int num_cores, DurationNs switch_cost)
      : switch_cost_(switch_cost), free_until_(static_cast<size_t>(num_cores), 0),
        last_entity_(static_cast<size_t>(num_cores), 0) {}

  CpuPool::RunGrant Acquire(uint64_t entity, TimeNs ready_at, DurationNs duration,
                            int preferred_core) {
    int best = 0;
    TimeNs best_free = kTimeNever;
    for (size_t i = 0; i < free_until_.size(); ++i) {
      if (free_until_[i] < best_free) {
        best_free = free_until_[i];
        best = static_cast<int>(i);
      }
    }
    int chosen = best;
    if (preferred_core >= 0 && preferred_core < static_cast<int>(free_until_.size())) {
      TimeNs pref_start =
          std::max(ready_at, free_until_[static_cast<size_t>(preferred_core)]);
      if (pref_start <= std::max(ready_at, best_free)) {
        chosen = preferred_core;
      }
    }
    size_t c = static_cast<size_t>(chosen);
    TimeNs start = std::max(ready_at, free_until_[c]);
    bool switched = last_entity_[c] != entity;
    if (switched) {
      start += switch_cost_;
      ++context_switches_;
    }
    TimeNs end = start + duration;
    total_busy_ += end - std::max(ready_at, free_until_[c]);
    free_until_[c] = end;
    last_entity_[c] = entity;
    return CpuPool::RunGrant{chosen, start, end, switched};
  }

  uint64_t context_switches() const { return context_switches_; }
  DurationNs total_busy() const { return total_busy_; }

 private:
  DurationNs switch_cost_;
  std::vector<TimeNs> free_until_;
  std::vector<uint64_t> last_entity_;
  uint64_t context_switches_ = 0;
  DurationNs total_busy_ = 0;
};

TEST(CpuPoolTest, GrantsMatchFullScanPolicy) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    int cores = static_cast<int>(1 + rng.NextBelow(16));
    DurationNs switch_cost = static_cast<DurationNs>(rng.NextBelow(300));
    CpuPool pool(cores, switch_cost);
    FullScanPool ref(cores, switch_cost);
    std::vector<int> last_core(8, -1);
    TimeNs clock = 0;
    for (int i = 0; i < 2000; ++i) {
      uint64_t entity = 1 + rng.NextBelow(8);
      // Mostly non-decreasing ready times, as the simulator issues them, with some
      // that lie behind earlier grants.
      clock += static_cast<TimeNs>(rng.NextBelow(1500));
      TimeNs ready_at = clock;
      if (rng.NextBelow(5) == 0) {
        ready_at -= std::min<TimeNs>(clock, static_cast<TimeNs>(rng.NextBelow(4000)));
      }
      DurationNs duration = static_cast<DurationNs>(rng.NextBelow(5000));
      // The entity's last core most of the time; otherwise none (-1), any core, or
      // one out of range.
      int preferred = last_core[entity - 1];
      switch (rng.NextBelow(6)) {
        case 0:
          preferred = -1;
          break;
        case 1:
          preferred = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cores)));
          break;
        case 2:
          preferred = cores + static_cast<int>(rng.NextBelow(3));
          break;
        default:
          break;
      }
      CpuPool::RunGrant got = pool.Acquire(entity, ready_at, duration, preferred);
      CpuPool::RunGrant want = ref.Acquire(entity, ready_at, duration, preferred);
      ASSERT_EQ(got.core, want.core) << "seed " << seed << " call " << i;
      ASSERT_EQ(got.start, want.start) << "seed " << seed << " call " << i;
      ASSERT_EQ(got.end, want.end) << "seed " << seed << " call " << i;
      ASSERT_EQ(got.context_switched, want.context_switched)
          << "seed " << seed << " call " << i;
      last_core[entity - 1] = got.core;
    }
    EXPECT_EQ(pool.context_switches(), ref.context_switches()) << "seed " << seed;
    EXPECT_EQ(pool.total_busy(), ref.total_busy()) << "seed " << seed;
  }
}

TEST(CostModelTest, DilationGrowsWithReplicas) {
  CostModel c;
  EXPECT_DOUBLE_EQ(c.ComputeDilation(1.0, 1), 1.0);
  EXPECT_GT(c.ComputeDilation(1.0, 2), 1.0);
  EXPECT_GT(c.ComputeDilation(1.0, 4), c.ComputeDilation(1.0, 2));
  EXPECT_DOUBLE_EQ(c.ComputeDilation(0.0, 4), 1.0);
}

TEST(CostModelTest, SmallerCacheDilatesMore) {
  CostModel big;
  big.llc_mb = 20;
  CostModel small = big;
  small.llc_mb = 8;
  EXPECT_GT(small.ComputeDilation(0.5, 2), big.ComputeDilation(0.5, 2));
}

TEST(SimulatorTest, RunDrainsQueue) {
  Simulator sim(1);
  int count = 0;
  sim.queue().ScheduleAt(10, [&] { ++count; });
  sim.queue().ScheduleAt(20, [&] { ++count; });
  EXPECT_EQ(sim.Run(), 2u);
  EXPECT_EQ(sim.now(), 20);
}

}  // namespace
}  // namespace remon
