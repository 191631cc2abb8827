#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

namespace dmr::sim {

struct Engine::CallbackChunk {
  detail::InlineCallback slots[kChunkSlots];
};

Engine::Engine() = default;

Engine::~Engine() {
  // Live closures may own resources (captured std::functions, strings):
  // destroy every armed callback.  Empty slots are a no-op.
  for (std::uint32_t slot = 0; slot < gens_.size(); ++slot) {
    slot_callback(slot).destroy();
  }
}

detail::InlineCallback& Engine::slot_callback(std::uint32_t slot) {
  return chunks_[slot / kChunkSlots]->slots[slot % kChunkSlots];
}

std::uint32_t Engine::allocate_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  const std::uint32_t slot = static_cast<std::uint32_t>(gens_.size());
  gens_.push_back(1);
  if (slot % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<CallbackChunk>());
  }
  return slot;
}

void Engine::release_slot(std::uint32_t slot) {
  slot_callback(slot).destroy();
  // Generation 0 is reserved so no EventId ever equals kInvalidEvent.
  if (++gens_[slot] == 0) gens_[slot] = 1;
  free_slots_.push_back(slot);
}

EventId Engine::schedule_slot(SimTime origin, SimTime at, SimTime step,
                              Lane lane) {
  // A non-finite time would never fire (inf) or break the key's total
  // order (NaN).
  if (!std::isfinite(at)) {
    throw std::invalid_argument("Engine::schedule_at: non-finite time");
  }
  if (at < now_) {
    throw std::invalid_argument("Engine::schedule_at: time in the past");
  }
  const std::uint32_t slot = allocate_slot();
  const std::uint32_t gen = gens_[slot];
  const std::uint64_t seq = next_seq_++;
  Entry entry{at, origin, now_, pack_lane_seq(lane, seq), seq, slot, gen};
  // Chain position (see the ordering note in the header).  Outside any
  // dispatch at this instant the new chain is rooted before all of them:
  // early, with the freshest root_seq.
  const Entry& by = dispatching_;
  if (by.time == now_) {
    const int by_lane = lane_of(by);
    const int own_lane = static_cast<int>(lane);
    const SimTime by_next = by.origin + step;
    if (step > 0.0 && by_lane == own_lane && by_next == now_) {
      // The dispatch is a link of a same-step chain: continue it.
      entry.root = by.root;
      entry.root_seq = by.root_seq;
      entry.lane_seq |= by.lane_seq & kLateBit;
    } else if (by_lane != own_lane ? by_lane > own_lane : by_next > now_) {
      entry.lane_seq |= kLateBit;
    }
  }
  insert_entry(entry);
  ++live_count_;
  return (static_cast<EventId>(slot) << 32) | gen;
}

void Engine::insert_entry(const Entry& entry) {
  // A stale top — usually the entry being dispatched — is replaced in one
  // sift instead of a pop and a push.
  if (!heap_.empty() && gens_[heap_.front().slot] != heap_.front().gen) {
    heap_.front() = entry;
    --stale_;
    sift_down(0);
    return;
  }
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

void Engine::sift_up(std::size_t i) {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!EntryAfter{}(heap_[parent], entry)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Engine::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry entry = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (EntryAfter{}(heap_[best], heap_[child])) best = child;
    }
    if (!EntryAfter{}(entry, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

bool Engine::settle_front() {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (gens_[top.slot] == top.gen) return true;
    // Stale (cancelled, or dispatched and not replaced): pop it.
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    --stale_;
  }
  return false;
}

void Engine::sweep_stale() {
  std::erase_if(heap_, [this](const Entry& entry) {
    return gens_[entry.slot] != entry.gen;
  });
  stale_ = 0;
  if (heap_.size() < 2) return;
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
}

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t gen = gen_of(id);
  if (gen == 0 || slot >= gens_.size() || gens_[slot] != gen) return false;
  release_slot(slot);
  --live_count_;
  ++stale_;
  // Keep the stale share bounded even when cancelled entries never reach
  // the top (run_until stopped early, service forks abandoned).
  if (stale_ > std::max(kSweepFloor, live_count_)) sweep_stale();
  return true;
}

bool Engine::step() {
  if (!settle_front()) return false;
  // A copy: a callback that steps the engine itself moves dispatching_.
  const Entry entry = heap_.front();
  dispatching_ = entry;
  if (stream_.wants(obs::kDispatched)) {
    // Report against the pre-advance clock; next_seq_ is the watermark
    // separating events that coexisted in the queue from ones the
    // upcoming callback will schedule.
    const obs::EventKey key{entry.time, lane_of(entry), entry.origin,
                            (entry.lane_seq & kLateBit) != 0, entry.root,
                            entry.root_seq, entry.lane_seq & kSeqMask};
    stream_.emit(obs::kDispatched, &obs::Sink::dispatched,
                 obs::DispatchFact{key, now_, next_seq_});
  }
  now_ = entry.time;
  detail::InlineCallback& callback = slot_callback(entry.slot);
  // The event is no longer pending from the callback's point of view
  // (cancel(own id) returns false, matching the old engine) but the slot
  // is not reusable until the closure has run and been destroyed.
  // Its entry stays on top as a stale one, for the first event the
  // callback schedules to replace.
  if (++gens_[entry.slot] == 0) gens_[entry.slot] = 1;
  --live_count_;
  ++stale_;
  ++executed_;
  if (!callback.empty()) callback.invoke();
  callback.destroy();
  free_slots_.push_back(entry.slot);
  return true;
}

std::size_t Engine::run(std::size_t limit) {
  // Deliberately no reset here: a stop() issued before the call halts the
  // run before the first event (it used to be silently dropped).
  std::size_t count = 0;
  while (count < limit && !stop_requested_) {
    if (!step()) break;
    ++count;
  }
  stop_requested_ = false;  // consume the request, if any
  return count;
}

std::size_t Engine::run_until(SimTime t_end) {
  std::size_t count = 0;
  while (!stop_requested_) {
    if (!settle_front()) break;
    if (heap_.front().time > t_end) break;
    step();
    ++count;
  }
  // A stop means "freeze now": the clock does not advance to t_end.
  if (stop_requested_) {
    stop_requested_ = false;
    return count;
  }
  if (now_ < t_end) now_ = t_end;
  return count;
}

}  // namespace dmr::sim
