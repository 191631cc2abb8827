// Unit tests for the discrete-event engine and the trace recorder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/series.hpp"

namespace {

using namespace dmr::sim;

TEST(Engine, EventsFireInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
}

TEST(Engine, SameTimeFifoBySchedulingOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, RejectsPastAndNegative) {
  Engine engine;
  engine.schedule_at(10.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5.0, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(-1.0, [] {}), std::invalid_argument);
}

// A non-finite time would never fire (inf) or break the queue's total
// order (NaN): every schedule_* entry point refuses it.
TEST(Engine, RejectsNonFiniteTimes) {
  Engine engine;
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(engine.schedule_at(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_at(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(inf, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_after(nan, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_span(0.0, inf, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_span(inf, 1.0, [] {}), std::invalid_argument);
  EXPECT_EQ(engine.queued(), 0u);
  EXPECT_EQ(engine.queue_footprint(), 0u);
}

TEST(Engine, ScheduleSpanTiesAsItsLinksWould) {
  // Two 1 s chains from t=0: X (queued first) as a 3-link span, then a
  // 3-link span started at its landing; Z as one 6-link span.  Both end
  // at 6 with their last link starting at 5.  Had every link been an
  // event, X's would precede Z's at every instant, so X ends first even
  // though its second span was queued at t=3, long after Z's.
  Engine engine;
  std::vector<std::string> order;
  engine.schedule_span(2.0, 1.0, [&] {
    engine.schedule_span(5.0, 1.0, [&] { order.push_back("X"); });
  });
  engine.schedule_span(5.0, 1.0, [&] { order.push_back("Z"); });
  // Plain 1 s events scheduled at 5 by dispatches that rank before
  // (scheduled at 0, before the links' 4) and after (scheduled at 4.5)
  // the chains' links at 5.
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(1.0, [&] { order.push_back("early"); });
  });
  engine.schedule_at(4.5, [&] {
    engine.schedule_at(5.0, [&] {
      engine.schedule_after(1.0, [&] { order.push_back("late"); });
    });
  });
  engine.run();
  EXPECT_EQ(order, (std::vector<std::string>{"early", "X", "Z", "late"}));
}

TEST(Engine, ScheduleSpanRejectsPastStartAndNegativeStep) {
  Engine engine;
  engine.schedule_at(2.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_span(1.0, 4.0, [] {}), std::invalid_argument);
  EXPECT_THROW(engine.schedule_span(3.0, -1.0, [] {}), std::invalid_argument);
  EXPECT_NO_THROW(engine.schedule_span(2.0, 3.0, [] {}));
  EXPECT_NO_THROW(engine.schedule_span(5.0, 0.0, [] {}));
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));  // double cancel
  engine.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine engine;
  const EventId id = engine.schedule_at(1.0, [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine engine;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    engine.schedule_at(t, [&fired, &engine] { fired.push_back(engine.now()); });
  }
  engine.run_until(2.5);
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_DOUBLE_EQ(engine.now(), 2.5);
  engine.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Engine, StopInterruptsRun) {
  Engine engine;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(i + 1.0, [&] {
      if (++count == 3) engine.stop();
    });
  }
  engine.run();
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(engine.empty());
}

TEST(Engine, StopBeforeRunHaltsBeforeFirstEvent) {
  // A stop() issued before run() used to be silently dropped by an
  // unconditional reset; it must halt the run before any event fires,
  // then be consumed so the next run proceeds.
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.stop();
  EXPECT_TRUE(engine.stop_pending());
  EXPECT_EQ(engine.run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(engine.stop_pending());
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Engine, StopBeforeRunUntilFreezesClock) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(1.0, [&] { ++fired; });
  engine.stop();
  EXPECT_EQ(engine.run_until(5.0), 0u);
  EXPECT_EQ(fired, 0);
  // A stopped run does not advance the clock to t_end.
  EXPECT_DOUBLE_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(Engine, StopDuringRunUntilFreezesClock) {
  Engine engine;
  engine.schedule_at(1.0, [&] { engine.stop(); });
  engine.schedule_at(2.0, [] {});
  EXPECT_EQ(engine.run_until(10.0), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.run_until(10.0), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, CancelRunUntilInterleavingProperty) {
  // Randomized interleaving of schedule / cancel / run_until: exactly
  // the non-cancelled events fire, in time order, each within the
  // run_until window that covers it.
  std::mt19937 gen(20170712);
  for (int round = 0; round < 20; ++round) {
    Engine engine;
    std::uniform_real_distribution<double> time_dist(0.0, 100.0);
    std::bernoulli_distribution cancel_dist(0.3);

    struct Planned {
      double time;
      EventId id;
      bool cancelled = false;
    };
    std::vector<Planned> planned;
    std::vector<double> fired;
    for (int i = 0; i < 60; ++i) {
      const double at = time_dist(gen);
      Planned entry;
      entry.time = at;
      entry.id = engine.schedule_at(
          at, [&fired, &engine] { fired.push_back(engine.now()); });
      planned.push_back(entry);
    }
    for (auto& entry : planned) {
      if (cancel_dist(gen)) {
        EXPECT_TRUE(engine.cancel(entry.id));
        entry.cancelled = true;
      }
    }
    // Advance in random increasing steps, cancelling a few more events
    // ahead of the clock as we go.
    double t = 0.0;
    std::size_t executed = 0;
    while (t < 100.0) {
      t += std::uniform_real_distribution<double>(1.0, 30.0)(gen);
      executed += engine.run_until(t);
      for (auto& entry : planned) {
        if (!entry.cancelled && entry.time > t && cancel_dist(gen)) {
          EXPECT_TRUE(engine.cancel(entry.id));
          entry.cancelled = true;
        }
      }
    }
    executed += engine.run();

    std::vector<double> expected;
    for (const auto& entry : planned) {
      if (!entry.cancelled) expected.push_back(entry.time);
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(executed, expected.size());
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(fired[i], expected[i]);
    }
    EXPECT_TRUE(engine.empty());
  }
}

TEST(Engine, RunWithLimit) {
  Engine engine;
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(i + 1.0, [&] { ++count; });
  }
  EXPECT_EQ(engine.run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(Engine, EventsCanScheduleEvents) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_after(1.0, chain);
  };
  engine.schedule_at(0.0, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_DOUBLE_EQ(engine.now(), 99.0);
}

/// Counts live instances, so a leak or a double destroy of a callback
/// capture shows up as a non-zero balance.
struct Tracked {
  static inline int live = 0;
  Tracked() { ++live; }
  Tracked(const Tracked&) { ++live; }
  Tracked(Tracked&&) noexcept { ++live; }
  ~Tracked() { --live; }
};

/// A capture too large for the inline callback buffer: it takes the
/// new/delete fallback.
struct OversizedCallback {
  std::array<unsigned char, 64> payload{};
  Tracked tracked;
  int* fired;
  void operator()() const { ++*fired; }
};
static_assert(sizeof(OversizedCallback) >
              detail::InlineCallback::kInlineBytes);

TEST(Engine, OversizedCaptureFiresCancelsAndIsDestroyed) {
  int fired = 0;
  {
    Engine engine;
    engine.schedule_at(1.0, OversizedCallback{{}, {}, &fired});
    const EventId cancelled =
        engine.schedule_at(2.0, OversizedCallback{{}, {}, &fired});
    engine.schedule_at(3.0, OversizedCallback{{}, {}, &fired});
    EXPECT_EQ(Tracked::live, 3);
    EXPECT_TRUE(engine.cancel(cancelled));
    EXPECT_EQ(Tracked::live, 2);
    engine.run_until(2.5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(Tracked::live, 1);  // the fired capture is gone
  }
  // The engine destroyed the still-pending capture.
  EXPECT_EQ(Tracked::live, 0);
  EXPECT_EQ(fired, 1);
}

// Eager reclamation: cancelling an event hands its slot back and, when
// cancels outnumber live events, sweeps the never-reached queue entries
// too — queued() is exact and the footprint shrinks instead of retaining
// every far-future corpse until it reaches the top.
TEST(EngineCancel, FarFutureCancelsReclaimEagerly) {
  Engine engine;
  constexpr int kEvents = 10000;
  std::vector<EventId> ids;
  ids.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    ids.push_back(engine.schedule_at(1.0e9 + i, [] {}));
  }
  EXPECT_EQ(engine.queued(), static_cast<std::size_t>(kEvents));
  EXPECT_GE(engine.queue_footprint(), static_cast<std::size_t>(kEvents));
  for (const EventId id : ids) {
    EXPECT_TRUE(engine.cancel(id));
  }
  EXPECT_EQ(engine.queued(), 0u);
  // The stale-sweep bound: cancelled entries may linger only while they
  // are outnumbered by live ones (here: none) or under the sweep floor.
  EXPECT_LE(engine.queue_footprint(), 1024u);
  // The freed slots are reused, not abandoned: new events recycle the
  // same slot indices (id >> 32) instead of growing the table.
  std::uint32_t max_slot = 0;
  for (int i = 0; i < kEvents; ++i) {
    const EventId id = engine.schedule_at(2.0e9 + i, [] {});
    max_slot = std::max(max_slot, static_cast<std::uint32_t>(id >> 32));
  }
  EXPECT_LT(max_slot, static_cast<std::uint32_t>(kEvents + 1));
  EXPECT_EQ(engine.queued(), static_cast<std::size_t>(kEvents));
}

// queued() counts live events only — a cancelled entry must disappear
// from the count immediately, not at dispatch time.
TEST(EngineCancel, QueuedCountsLiveEventsExactly) {
  Engine engine;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(engine.schedule_at(10.0 + i, [] {}));
  }
  EXPECT_EQ(engine.queued(), 5u);
  EXPECT_TRUE(engine.cancel(ids[1]));
  EXPECT_TRUE(engine.cancel(ids[3]));
  EXPECT_EQ(engine.queued(), 3u);
  std::size_t fired = 0;
  engine.schedule_at(100.0, [&] { fired = engine.executed(); });
  EXPECT_EQ(engine.queued(), 4u);
  engine.run();
  EXPECT_EQ(engine.queued(), 0u);
  EXPECT_EQ(fired, 4u);  // 3 surviving + the probe itself
}

TEST(Trace, RecordsSeriesAgainstEngineClock) {
  Engine engine;
  SeriesRecorder trace(engine);
  engine.schedule_at(0.0, [&] { trace.record("alloc", 4.0); });
  engine.schedule_at(10.0, [&] { trace.record("alloc", 8.0); });
  engine.run();
  EXPECT_DOUBLE_EQ(trace.series("alloc").value_at(5.0), 4.0);
  EXPECT_DOUBLE_EQ(trace.series("alloc").value_at(10.0), 8.0);
  EXPECT_NEAR(trace.average("alloc", 0.0, 20.0), 6.0, 1e-12);
}

TEST(Trace, DeltaAccumulates) {
  Engine engine;
  SeriesRecorder trace(engine);
  engine.schedule_at(1.0, [&] { trace.record_delta("done", 1.0); });
  engine.schedule_at(2.0, [&] { trace.record_delta("done", 1.0); });
  engine.run();
  EXPECT_DOUBLE_EQ(trace.series("done").value_at(3.0), 2.0);
}

TEST(Trace, UnknownSeriesThrows) {
  Engine engine;
  SeriesRecorder trace(engine);
  EXPECT_THROW(trace.series("nope"), std::out_of_range);
}

TEST(Trace, CsvExport) {
  Engine engine;
  SeriesRecorder trace(engine);
  engine.schedule_at(1.0, [&] { trace.record("x", 2.0); });
  engine.run();
  const std::string csv = trace.to_csv("x");
  EXPECT_NE(csv.find("time,x"), std::string::npos);
  EXPECT_NE(csv.find("1,2"), std::string::npos);
}

}  // namespace
