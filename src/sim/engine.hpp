// Discrete-event simulation engine.
//
// The workload-scale experiments (Figs. 3-12, Table II) run the resource
// manager and hundreds of jobs in virtual time on this engine.  Events at
// one instant fire in a deterministic order, which keeps runs
// bit-reproducible: by lane, then in the order they were scheduled.
//
// Same-instant order.  An event scheduled while event E dispatches at
// instant x ranks among its same-(time, lane) peers as E ranked among
// the dispatches at x, and after anything scheduled before x; a plain
// sequence counter gives exactly that.  schedule_span() is the exception:
// it queues only the *last* event of a chain of `step`-long links (the
// workload driver's application iterations) and skips the links in
// between, so their dispatches never reach the counter.  The key keeps
// enough of them to rebuild the order:
//
//  - `origin`: when the event notionally was scheduled — the clock for
//    a plain event, the last link's start for a span.
//  - the chain position (late, root, root_seq).  A chain is rooted at
//    the dispatch that scheduled its first link, at instant `root`,
//    with the fresh sequence number `root_seq`.  At `root` that dispatch
//    precedes ("early") or follows ("late") the links of any other
//    same-step chain passing through `root`: it is early when it runs in
//    a lower lane, or in the same lane but was scheduled before
//    root - step.  A dispatch that *is* such a link (same lane,
//    scheduled exactly `step` > 0 earlier) does not root a chain: what
//    it schedules with that step continues its chain and inherits its
//    position.  Walking two same-origin chains back link by link then
//    gives: early before late, early chains by descending root, late
//    chains by ascending root, then root_seq.  A plain event is a chain
//    of one link (its delay is the step), so plain events keep the
//    counter order.  Scheduling between dispatches counts as part of
//    the last dispatch at the current instant; before any, as early.
//  - `seq`, last: the counter, which orders what one dispatch scheduled.
//
// That reproduces a one-event-per-link engine's order, with one residual
// case from rounding: two chains whose links drift apart (one passes
// 3.0000000000000004 where the other is rooted at 3) yet land on the
// same instant are compared as if their links had coincided.
//
// Lanes make that order *canonical* across different scheduling
// histories: a submission arrival scheduled ahead of time (snapshot
// replay, or the batch driver's arrival cursor) and the same arrival
// scheduled mid-run (streaming service mode) land in the same position
// relative to other events at the same instant.  The resident service's
// snapshot/restore machinery depends on this — a restored run
// re-schedules the whole submission log before running, and lanes
// guarantee the replayed event interleaving matches the live one.
//
// Archive-scale internals (100k-job SWF replays are millions of events):
//
//  - The event list is a 4-ary min-heap of 48-byte entries ordered by the
//    key above.  The key is a total order, so the layout is invisible to
//    outcomes.  The heap stays small because the batch driver streams
//    its arrivals (one pending arrival event per driver, not one per
//    job), so it holds about one entry per running job.
//
//  - Event identity is a generation-tagged slot: EventId packs
//    (slot index, generation), so schedule/cancel/pending/dispatch are
//    array lookups with zero hashing.  Cancelling reclaims the slot and
//    its callback storage eagerly; a stale queue entry remains until it
//    reaches the top of the heap or a sweep collects it.
//
//  - Callbacks live in a small-buffer inline type (detail::InlineCallback)
//    inside stable slot chunks; a capture over 48 bytes (none the
//    simulator schedules) falls back to new/delete.  No per-event
//    std::function heap churn on the hot path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/sink.hpp"

namespace dmr::chk {
struct TestBackdoor;
}  // namespace dmr::chk

namespace dmr::sim {

using SimTime = double;
using EventId = std::uint64_t;

constexpr EventId kInvalidEvent = 0;

/// Same-instant ordering bands.  Within a lane, events fire in the order
/// they were scheduled; across lanes the lower lane always fires first.
enum class Lane : std::uint8_t {
  /// Job submissions: always first at their instant, whether scheduled up
  /// front (batch / snapshot replay) or mid-run (streaming service).
  Arrival = 0,
  /// Everything else (the default).
  Normal = 1,
  /// Observers (the service's metrics sampler): fire after every
  /// state-changing event at the same instant, so a sample at time t
  /// always sees the settled post-t state.
  Sample = 2,
};

namespace detail {

/// Move-free small-buffer callable.  Callables up to kInlineBytes (every
/// capture the simulator schedules) are constructed in place; larger
/// ones fall back to new/delete.  The object never moves (slots sit in
/// stable chunks), so the callable needs no move constructor and no
/// virtual dispatch — two function pointers.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineBytes = 48;

  InlineCallback() = default;
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  bool empty() const { return invoke_ == nullptr; }

  template <typename F>
  void emplace(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>,
                  "InlineCallback: callable must be invocable with ()");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "InlineCallback: over-aligned captures unsupported");
    if constexpr (sizeof(Fn) <= kInlineBytes) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      // The buffer holds the pointer to a heap copy.
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      destroy_ = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  void invoke() { invoke_(buf_); }

  void destroy() {
    if (invoke_ == nullptr) return;
    destroy_(buf_);
    invoke_ = nullptr;
  }

 private:
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace detail

class Engine {
 public:
  Engine();  // out of line: CallbackChunk is incomplete here
  ~Engine();
  /// Pinned: slot chunks hold live closures that may capture `this`.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `at` (finite, >= now).
  /// Returns a handle usable with cancel().
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn, Lane lane = Lane::Normal) {
    const EventId id = schedule_slot(now_, at, at - now_, lane);
    slot_callback(slot_of(id)).emplace(std::forward<F>(fn));
    return id;
  }

  /// Schedule `fn` after a virtual delay (>= 0).
  template <typename F>
  EventId schedule_after(SimTime delay, F&& fn, Lane lane = Lane::Normal) {
    if (delay < 0.0) {
      throw std::invalid_argument("Engine::schedule_after: negative delay");
    }
    const EventId id = schedule_slot(now_, now_ + delay, delay, lane);
    slot_callback(slot_of(id)).emplace(std::forward<F>(fn));
    return id;
  }

  /// Schedule `fn` at `last_start + step` as the last link of a chain of
  /// `step`-long links that starts now (now <= last_start): it fires
  /// where that chain's last event would if every link had been its own
  /// event (see the ordering note at the top of the file), in the
  /// Normal lane.  The workload driver queues a span of application
  /// steps this way.
  template <typename F>
  EventId schedule_span(SimTime last_start, SimTime step, F&& fn) {
    if (!(last_start >= now_) || !(step >= 0.0)) {
      throw std::invalid_argument(
          "Engine::schedule_span: last link starts in the past or has a "
          "negative step");
    }
    const EventId id =
        schedule_slot(last_start, last_start + step, step, Lane::Normal);
    slot_callback(slot_of(id)).emplace(std::forward<F>(fn));
    return id;
  }

  /// Cancel a pending event.  Returns false when the event already fired,
  /// was cancelled, or never existed.  The slot and its callback storage
  /// are reclaimed immediately (the heap entry goes stale and is
  /// collected lazily or by a sweep).
  bool cancel(EventId id);

  bool pending(EventId id) const {
    const std::uint32_t slot = slot_of(id);
    const std::uint32_t gen = gen_of(id);
    return gen != 0 && slot < gens_.size() && gens_[slot] == gen;
  }

  /// Number of pending (live, uncancelled) events — exact.  Cancelled
  /// entries awaiting collection are never counted.
  std::size_t queued() const { return live_count_; }
  bool empty() const { return live_count_ == 0; }

  /// Heap entries currently held, *including* stale ones (cancelled, or
  /// dispatched and not yet replaced) — the structure's memory-visible
  /// footprint, for tests and telemetry.  queued() <= queue_footprint().
  std::size_t queue_footprint() const { return heap_.size(); }

  /// Run a single event; returns false when no events remain.
  bool step();

  /// Run until the queue drains or `limit` events have fired.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = std::numeric_limits<std::size_t>::max());

  /// Run events with time <= t_end, then advance the clock to t_end.
  /// A stop request (pre-run or mid-run) freezes the clock where it is
  /// instead of advancing it to t_end.
  std::size_t run_until(SimTime t_end);

  /// Request that run()/run_until() return after the current event
  /// completes.  A stop issued *before* the call halts it before the
  /// first event fires.  The request is consumed when the run returns,
  /// so a subsequent run proceeds normally.
  void stop() { stop_requested_ = true; }

  /// True when a stop() has been requested and not yet consumed by a run.
  bool stop_pending() const { return stop_requested_; }

  /// Events executed so far (monotone counter, for tests/telemetry).
  std::uint64_t executed() const { return executed_; }

  /// Subscribe `sink` to the `dispatched` fact: one per event, before
  /// the clock advances (unconsumed, one bit test per event).
  void attach(obs::Sink& sink) { stream_.attach(sink); }

 private:
  /// Test-only state corruption for the invariant checker's tests.
  friend struct ::dmr::chk::TestBackdoor;

  /// One queued occurrence of an event: 48 bytes, trivially copyable.
  /// (lane, late, seq) are packed into one integer; the order reads the
  /// lane from its top bits, then origin, then the rest of the key.
  struct Entry {
    SimTime time;
    SimTime origin;
    SimTime root;
    std::uint64_t lane_seq;
    std::uint64_t root_seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// True when `a` fires after `b` (obs::precedes with swapped arguments).
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (((a.lane_seq ^ b.lane_seq) >> kLaneShift) != 0) {
        return a.lane_seq > b.lane_seq;  // lanes differ
      }
      if (a.origin != b.origin) return a.origin > b.origin;
      const bool a_late = (a.lane_seq & kLateBit) != 0;
      if (a_late != ((b.lane_seq & kLateBit) != 0)) return a_late;
      if (a.root != b.root) return a_late == (a.root > b.root);
      if (a.root_seq != b.root_seq) return a.root_seq > b.root_seq;
      return a.lane_seq > b.lane_seq;
    }
  };

  static constexpr std::uint64_t kLaneShift = 62;
  static constexpr std::uint64_t kLateBit = std::uint64_t(1) << 61;
  static constexpr std::uint64_t kSeqMask = kLateBit - 1;
  static constexpr std::size_t kChunkSlots = 512;
  static constexpr std::size_t kSweepFloor = 1024;

  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint64_t pack_lane_seq(Lane lane, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(lane) << kLaneShift) | seq;
  }
  static int lane_of(const Entry& entry) {
    return static_cast<int>(entry.lane_seq >> kLaneShift);
  }

  /// Guarded entry insertion + slot allocation; the callback is emplaced
  /// by the schedule_* template after this returns.  `step` is the delay
  /// from `origin` to `at` as the caller computed it (the chain test
  /// needs the exact value, not at - origin).
  EventId schedule_slot(SimTime origin, SimTime at, SimTime step, Lane lane);
  std::uint32_t allocate_slot();
  detail::InlineCallback& slot_callback(std::uint32_t slot);
  /// Destroy the callback, bump the generation and free the slot.
  void release_slot(std::uint32_t slot);

  void insert_entry(const Entry& entry);
  /// Drop stale entries from the top; false when the heap is empty,
  /// otherwise heap_.front() is the live minimum.
  bool settle_front();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Drop every stale entry and re-heapify (triggered when cancels pile
  /// up faster than the stale entries reach the top).
  void sweep_stale();

  SimTime now_ = 0.0;
  /// The entry dispatched last (time -inf before the first): whatever is
  /// scheduled at its instant takes its chain position from it.
  Entry dispatching_{-std::numeric_limits<SimTime>::infinity(), 0.0, 0.0,
                     0, 0, 0, 0};
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t live_count_ = 0;
  std::size_t stale_ = 0;  // cancelled or dispatched, not yet collected
  bool stop_requested_ = false;
  obs::Stream stream_;
  std::vector<Entry> heap_;  // 4-ary min-heap, stale entries included

  // --- generation-tagged slots ---------------------------------------------
  std::vector<std::uint32_t> gens_;        // current generation per slot
  std::vector<std::uint32_t> free_slots_;
  struct CallbackChunk;                    // stable storage: never moves
  std::vector<std::unique_ptr<CallbackChunk>> chunks_;
};

}  // namespace dmr::sim
