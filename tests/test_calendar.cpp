// Event-engine tests (named after the calendar queue the 4-ary heap later
// replaced): ordering contract, generation safety and the golden outcome
// digests pinning every rewrite to the original priority-queue engine,
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "engine_digests.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dmr::sim;

// Golden outcome digests captured from the pre-calendar engine (the
// std::priority_queue implementation) across four seeds and the three
// drive paths.  The calendar rewrite must reproduce every one exactly —
// a single changed timestamp, counter or sample line anywhere in a run
// changes the FNV-1a value.  The service column was re-captured once,
// when the sample JSON lines lost a key that duplicated
// rejected_full_total: each new value is the old run's digest with
// that one key cut from every sample line (the job tables, metrics and
// all other sample fields are unchanged).
struct GoldenDigest {
  std::uint64_t seed;
  std::uint64_t single_cluster;
  std::uint64_t federation;
  std::uint64_t service;
};

constexpr GoldenDigest kGoldens[] = {
    {1ULL, 0x374f9dc3ac058befULL, 0x24c7dc104784bfb6ULL,
     0xde735e793d8d0091ULL},
    {7ULL, 0xa1cd19c251cfe6e5ULL, 0x5334bdb3d8907c07ULL,
     0xe9cbdc6727c7b381ULL},
    {42ULL, 0x957470ebdee4ce5aULL, 0x288dda3f3f3a6592ULL,
     0x0c3a76969c072550ULL},
    {2017ULL, 0x855160be6ef40875ULL, 0x3f5968af9121d2dbULL,
     0x8b434c6a09af137aULL},
};

TEST(CalendarGolden, SingleClusterSeedSweep) {
  for (const GoldenDigest& golden : kGoldens) {
    EXPECT_EQ(dmr::digests::single_cluster_digest(golden.seed),
              golden.single_cluster)
        << "seed " << golden.seed;
  }
}

TEST(CalendarGolden, FederationSeedSweep) {
  for (const GoldenDigest& golden : kGoldens) {
    EXPECT_EQ(dmr::digests::federation_digest(golden.seed), golden.federation)
        << "seed " << golden.seed;
  }
}

TEST(CalendarGolden, ServiceReplaySeedSweep) {
  for (const GoldenDigest& golden : kGoldens) {
    EXPECT_EQ(dmr::digests::service_digest(golden.seed), golden.service)
        << "seed " << golden.seed;
  }
}

// The engine's ordering contract: events fire in ascending (time, lane,
// sequence) order no matter how the queue stores them.  Random
// schedule/cancel interleavings — including schedules issued from inside
// running callbacks — are checked against a reference sort of exactly
// the surviving (time, lane, seq) keys.
struct OrderingInput {
  std::uint64_t seed;
  int upfront;  // cancellable events scheduled before the run
  int chained;  // events that reschedule one more from inside the run
  /// Run to this time first, then schedule `more` cancellable events
  /// (0: no pause).
  double pause_at;
  int more;
  /// Each pending cancellable event is cancelled when a draw from
  /// [0, cancel_of) falls below cancel_below.
  int cancel_below;
  int cancel_of;
};

struct OrderingRun {
  int cancels = 0;
  std::size_t footprint_before_cancels = 0;
  std::size_t footprint_after_cancels = 0;
  std::size_t queued_after_cancels = 0;
};

OrderingRun expect_reference_order(const OrderingInput& input) {
  std::mt19937_64 rng(input.seed);
  Engine engine;
  // key = (time, lane, issue index); issue index stands in for the
  // engine's internal sequence number — both count schedule calls.
  using Key = std::tuple<double, int, int>;
  std::vector<Key> fired;
  std::vector<EventId> ids;
  std::vector<Key> keys;
  int issued = 0;

  // Time spans from "immediate" to ~2^40 seconds ahead.
  auto random_time = [&](double at_least) {
    const double exponent = std::uniform_real_distribution<>(0.0, 40.0)(rng);
    return at_least + std::exp2(exponent) - 1.0;
  };
  auto random_lane = [&] {
    const int lane = std::uniform_int_distribution<>(0, 2)(rng);
    return static_cast<Lane>(lane);
  };
  auto schedule_one = [&](double at_least) {
    const double time = random_time(at_least);
    const Lane lane = random_lane();
    const Key key{time, static_cast<int>(lane), issued++};
    const EventId id = engine.schedule_at(
        time, [&fired, key] { fired.push_back(key); }, lane);
    ids.push_back(id);
    keys.push_back(key);
  };

  for (int i = 0; i < input.upfront; ++i) schedule_one(0.0);
  // A few events reschedule from inside the run (chained steps).
  for (int i = 0; i < input.chained; ++i) {
    const double time = random_time(0.0);
    const Key key{time, static_cast<int>(Lane::Normal), issued++};
    engine.schedule_at(time, [&, key] {
      fired.push_back(key);
      schedule_one(std::get<0>(key));
    });
    keys.push_back(key);
    ids.push_back(kInvalidEvent);  // keep indices aligned; not cancellable
  }
  if (input.pause_at > 0.0) {
    // Pause mid-run, then schedule more from the paused clock.
    engine.run_until(input.pause_at);
    for (int i = 0; i < input.more; ++i) schedule_one(engine.now());
  }
  OrderingRun run;
  run.footprint_before_cancels = engine.queue_footprint();
  std::vector<bool> cancelled(keys.size(), false);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == kInvalidEvent || !engine.pending(ids[i])) continue;
    const int draw =
        std::uniform_int_distribution<>(0, input.cancel_of - 1)(rng);
    if (draw < input.cancel_below) {
      EXPECT_TRUE(engine.cancel(ids[i]));
      cancelled[i] = true;
      ++run.cancels;
    }
  }
  run.footprint_after_cancels = engine.queue_footprint();
  run.queued_after_cancels = engine.queued();
  engine.run();

  // Keys appended past the cancellation window (schedules from inside
  // the run) were never cancellable.
  std::vector<Key> expected;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i >= cancelled.size() || !cancelled[i]) expected.push_back(keys[i]);
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected) << "seed " << input.seed;
  return run;
}

TEST(CalendarOrdering, RandomScheduleCancelMatchesReferenceSort) {
  // Cancel a random third of 400 up-front events, with 30 chained ones.
  for (std::uint32_t round = 0; round < 20; ++round) {
    expect_reference_order({round * 7919 + 13, 400, 30, 0.0, 0, 1, 3});
  }
  // Cancel three in four of 3000 + 1500 events: more than the sweep floor
  // (1024) and than the live set, so sweep_stale compacts and
  // re-heapifies the queue while live events remain queued far ahead.
  // A broken re-heapify misorders the dispatches that follow.
  const OrderingRun run =
      expect_reference_order({2017, 3000, 0, 1.0e4, 1500, 3, 4});
  EXPECT_GT(run.cancels, 1024);
  EXPECT_GT(run.queued_after_cancels, 0u);
  // Cancelling leaves stale entries behind; only a sweep drops them.
  EXPECT_LT(run.footprint_after_cancels, run.footprint_before_cancels);
}

// The order before spans existed, as a reference: a heap on (time,
// lane, scheduling order), every event scheduled when it is known.
class CounterEngine {
 public:
  double now() const { return now_; }
  void schedule_after(double delay, std::function<void()> fn,
                      Lane lane = Lane::Normal) {
    schedule_at(now_ + delay, std::move(fn), lane);
  }
  void schedule_at(double at, std::function<void()> fn,
                   Lane lane = Lane::Normal) {
    queue_.push(Event{at, static_cast<int>(lane), next_seq_++, std::move(fn)});
  }
  void run() {
    while (!queue_.empty()) {
      const Event event = queue_.top();
      queue_.pop();
      now_ = event.time;
      event.fn();
    }
  }

 private:
  struct Event {
    double time;
    int lane;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator<(const Event& other) const {  // max-heap: invert
      return std::tie(time, lane, seq) >
             std::tie(other.time, other.lane, other.seq);
    }
  };
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event> queue_;
};

// schedule_span must fire a coalesced chain exactly where its last link
// would fire had every link been an event.  Processes run spans of
// equal-step links on a half-second grid (ties are the common case); at
// each landing a process may schedule a side event (any lane, delay 0 to
// 3 s) and starts its next span at once or from a separate event.  Every
// choice hashes (seed, process, span), so runs make the same choices
// whatever order their events fire in; their logs must match.
template <typename Eng>
class SpanWorld {
 public:
  SpanWorld(std::uint64_t seed, bool coalesce)
      : seed_(seed), coalesce_(coalesce) {}

  std::vector<std::string> run() {
    for (int p = 0; p < kProcesses; ++p) {
      engine_.schedule_at(pick(p, -1, 0, 4), [this, p] { start(p, 0); });
    }
    engine_.run();
    return log_;
  }

 private:
  static constexpr int kProcesses = 12;
  static constexpr int kSpans = 8;

  int pick(int process, int span, int what, int n) const {
    std::uint64_t h = seed_ * 0x9e3779b97f4a7c15ULL;
    for (const int v : {process, span, what}) {
      h = (h ^ static_cast<std::uint64_t>(v + 7)) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
    }
    return static_cast<int>(h % static_cast<std::uint64_t>(n));
  }

  void start(int p, int span) {
    if (span == kSpans) return;
    const double step = 0.5 * (1 + pick(p, span, 1, 4));
    const int links = 1 + pick(p, span, 2, 5);
    if constexpr (std::is_same_v<Eng, Engine>) {
      if (coalesce_) {
        double last_start = engine_.now();
        for (int i = 1; i < links; ++i) last_start += step;
        engine_.schedule_span(last_start, step,
                              [this, p, span] { land(p, span); });
        return;
      }
    }
    link(p, span, links, step);
  }

  void link(int p, int span, int left, double step) {
    engine_.schedule_after(step, [this, p, span, left, step] {
      if (left == 1) {
        land(p, span);
      } else {
        link(p, span, left - 1, step);
      }
    });
  }

  void land(int p, int span) {
    const std::string name = std::to_string(p) + "." + std::to_string(span);
    log_.push_back("land " + name);
    if (pick(p, span, 3, 2) == 0) {
      engine_.schedule_after(
          0.5 * pick(p, span, 4, 7),
          [this, name] { log_.push_back("side " + name); },
          static_cast<Lane>(pick(p, span, 5, 3)));
    }
    // Next span: at once (continuing the chain), or from a separate event
    // 0, 0.5 or 1 s later (a new root, late or early against the other
    // chains' links at its instant).
    const int gap = pick(p, span, 6, 4);
    if (gap == 0) {
      start(p, span + 1);
      return;
    }
    engine_.schedule_after(0.5 * (gap - 1), [this, p, span, name] {
      log_.push_back("resume " + name);
      start(p, span + 1);
    });
  }

  std::uint64_t seed_;
  bool coalesce_;
  Eng engine_;
  std::vector<std::string> log_;
};

TEST(CalendarOrdering, SpansFireWhereTheirLastLinkWould) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<std::string> reference =
        SpanWorld<CounterEngine>(seed, false).run();
    ASSERT_GE(reference.size(), 12u * 8u);
    // One event per link keeps the scheduling order ...
    EXPECT_EQ(SpanWorld<Engine>(seed, false).run(), reference)
        << "seed " << seed;
    // ... and so does one event per span.
    EXPECT_EQ(SpanWorld<Engine>(seed, true).run(), reference)
        << "seed " << seed;
  }
}

// Far-future events fifteen orders of magnitude apart keep firing in
// order (a windowed queue must re-anchor across every gap).
TEST(CalendarOrdering, FarFutureYearAdvance) {
  Engine engine;
  std::vector<double> fired;
  // Powers of ~1000 apart: every gap forces at least one re-anchor.
  const double times[] = {1.0, 1e3, 1e6, 1e9, 1e12, 1e15};
  for (const double t : times) {
    engine.schedule_at(t, [&fired, t] { fired.push_back(t); });
  }
  // Interleave near-term chatter ahead of the far-future events.
  for (int i = 0; i < 100; ++i) {
    engine.schedule_at(0.5 + 0.001 * i, [] {});
  }
  engine.run();
  ASSERT_EQ(fired.size(), 6u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_DOUBLE_EQ(engine.now(), 1e15);
}

// Generation safety: once a slot is reclaimed and reused, the stale
// EventId (same slot, older generation) must not cancel the new tenant.
TEST(CalendarSlots, StaleCancelAfterSlotReuseIsRejected) {
  Engine engine;
  bool first_fired = false;
  const EventId first = engine.schedule_at(1.0, [&] { first_fired = true; });
  ASSERT_TRUE(engine.cancel(first));  // slot goes back to the free list
  bool second_fired = false;
  const EventId second = engine.schedule_at(2.0, [&] { second_fired = true; });
  // Slot reuse is what makes the test meaningful (LIFO free list).
  ASSERT_EQ(first >> 32, second >> 32);
  ASSERT_NE(first, second);  // generations differ
  EXPECT_FALSE(engine.cancel(first));  // stale id: must not hit the slot
  engine.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

TEST(CalendarSlots, CancelOfFiredEventNeverResurfaces) {
  Engine engine;
  int fires = 0;
  const EventId id = engine.schedule_at(1.0, [&] { ++fires; });
  engine.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(engine.cancel(id));
  // Reuse the slot and make sure the old id still bounces.
  const EventId next = engine.schedule_at(2.0, [] {});
  EXPECT_FALSE(engine.cancel(id));
  EXPECT_TRUE(engine.cancel(next));
}

}  // namespace
