#include "sim/engine.hpp"

#include <bit>
#include <cmath>

#include "util/log.hpp"

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
  // !(at >= now_) also rejects NaN instead of queueing an unorderable
  // entry.
  if (!(at >= now_)) {
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
  ++size_;
  const double t = entry.time;
  // Written as !(t < limit) so +inf lands in the overflow list.
  if (!(t < year_limit_)) {
    overflow_.push_back(entry);
  } else {
    // Any monotone time->day mapping partitions correctly (dispatch
    // order comes from the per-day sort), so the reciprocal multiply is
    // safe even where it rounds differently from the division.
    const std::int64_t day =
        static_cast<std::int64_t>((t - epoch_) * inv_width_);
    if (day <= active_day_) {
      // The day under the cursor (or a backdoor time-travel entry):
      // binary-insert to keep active_ sorted.  The common case — an
      // immediate event at the current instant — is the descending
      // minimum and lands at the back in O(1).
      const auto pos = std::lower_bound(active_.begin(), active_.end(), entry,
                                        EntryAfter{});
      active_.insert(pos, entry);
    } else if (day < static_cast<std::int64_t>(kDays)) {
      buckets_[static_cast<std::size_t>(day)].push_back(entry);
      bucket_bits_[day >> 6] |= std::uint64_t(1) << (day & 63);
    } else {
      // Floating-point edge: t just under year_limit_ can still floor to
      // kDays.
      overflow_.push_back(entry);
    }
  }
  if (size_ >= grow_at_) rebuild();
}

std::int64_t Engine::next_set_day(std::int64_t after) const {
  const std::size_t start =
      after < 0 ? 0 : static_cast<std::size_t>(after) + 1;
  if (start >= kDays) return -1;
  std::size_t word_idx = start >> 6;
  std::uint64_t word =
      bucket_bits_[word_idx] & (~std::uint64_t(0) << (start & 63));
  for (;;) {
    if (word != 0) {
      return static_cast<std::int64_t>(word_idx * 64 +
                                       std::countr_zero(word));
    }
    if (++word_idx >= kDays / 64) return -1;
    word = bucket_bits_[word_idx];
  }
}

bool Engine::settle_front() {
  for (;;) {
    while (!active_.empty()) {
      const Entry& entry = active_.back();
      if (gens_[entry.slot] == entry.gen) return true;
      active_.pop_back();  // stale: slot already reclaimed by cancel()
      --size_;
      --stale_;
    }
    const std::int64_t day = next_set_day(active_day_);
    if (day >= 0) {
      active_day_ = day;
      bucket_bits_[day >> 6] &= ~(std::uint64_t(1) << (day & 63));
      std::vector<Entry>& bucket = buckets_[static_cast<std::size_t>(day)];
      active_.swap(bucket);  // bucket inherits active_'s spare capacity
      std::sort(active_.begin(), active_.end(), EntryAfter{});
      continue;
    }
    if (overflow_.empty()) return false;
    advance_year();
  }
}

void Engine::merge_overflow() {
  if (overflow_sorted_ == overflow_.size()) return;
  const auto mid = overflow_.begin() +
                   static_cast<std::ptrdiff_t>(overflow_sorted_);
  std::sort(mid, overflow_.end(), EntryAfter{});
  std::inplace_merge(overflow_.begin(), mid, overflow_.end(), EntryAfter{});
  overflow_sorted_ = overflow_.size();
}

void Engine::advance_year() {
  merge_overflow();
  // The back of the (descending) overflow is the global minimum; drop
  // stale entries sitting there while we are touching them anyway.
  while (!overflow_.empty() &&
         gens_[overflow_.back().slot] != overflow_.back().gen) {
    overflow_.pop_back();
    --size_;
    --stale_;
  }
  overflow_sorted_ = overflow_.size();
  if (overflow_.empty()) return;

  // Re-anchor the year at the overflow minimum and adapt the day width
  // to the span: aim for a handful of events per day; anything past the
  // new year stays in overflow for the next advance.
  const double t_min = overflow_.back().time;
  const double t_max = overflow_.front().time;
  const double span = t_max - t_min;
  // Expected events over the span: at least the overflow population, but
  // when the engine has been dispatching (steady state) the observed
  // rate counts the ring-resident chains the overflow entries will
  // spawn, which dominate day occupancy.
  double expected = static_cast<double>(overflow_.size());
  const double window = now_ - year_mark_time_;
  if (window > 0.0 && executed_ > year_mark_executed_) {
    const double rate =
        static_cast<double>(executed_ - year_mark_executed_) / window;
    expected = std::max(expected, rate * span);
  }
  year_mark_time_ = now_;
  year_mark_executed_ = executed_;
  double width =
      span > 0.0 && std::isfinite(span) ? span * 4.0 / expected : width_;
  if (!(width > 0.0) || !std::isfinite(width)) width = 1.0;
  width_ = width;
  inv_width_ = 1.0 / width_;
  epoch_ = t_min;
  year_limit_ = epoch_ + width_ * static_cast<double>(kDays);
  active_day_ = -1;

  while (!overflow_.empty()) {
    const Entry entry = overflow_.back();
    if (!(entry.time < year_limit_)) break;
    const std::int64_t day =
        static_cast<std::int64_t>((entry.time - epoch_) * inv_width_);
    if (day >= static_cast<std::int64_t>(kDays)) break;
    overflow_.pop_back();
    buckets_[static_cast<std::size_t>(day)].push_back(entry);
    bucket_bits_[day >> 6] |= std::uint64_t(1) << (day & 63);
  }
  overflow_sorted_ = overflow_.size();
}

void Engine::rebuild() {
  std::vector<Entry> all;
  all.reserve(size_);
  auto take = [&](std::vector<Entry>& source) {
    for (const Entry& entry : source) {
      if (gens_[entry.slot] == entry.gen) {
        all.push_back(entry);
      } else {
        --size_;
        --stale_;
      }
    }
    source.clear();
  };
  take(active_);
  for (std::size_t day = 0; day < kDays; ++day) take(buckets_[day]);
  for (std::uint64_t& word : bucket_bits_) word = 0;
  take(overflow_);
  overflow_sorted_ = 0;

  if (!all.empty()) {
    double t_min = all.front().time;
    double t_max = t_min;
    for (const Entry& entry : all) {
      t_min = std::min(t_min, entry.time);
      t_max = std::max(t_max, entry.time);
    }
    const double span = t_max - t_min;
    double width = span > 0.0 && std::isfinite(span)
                       ? span * 4.0 / static_cast<double>(all.size())
                       : width_;
    if (!(width > 0.0) || !std::isfinite(width)) width = 1.0;
    width_ = width;
    inv_width_ = 1.0 / width_;
    epoch_ = std::isfinite(t_min) ? t_min : now_;
    year_limit_ = epoch_ + width_ * static_cast<double>(kDays);
    active_day_ = -1;
    for (const Entry& entry : all) {
      if (entry.time < year_limit_) {
        const std::int64_t day =
            static_cast<std::int64_t>((entry.time - epoch_) * inv_width_);
        if (day < static_cast<std::int64_t>(kDays)) {
          buckets_[static_cast<std::size_t>(day)].push_back(entry);
          bucket_bits_[day >> 6] |= std::uint64_t(1) << (day & 63);
          continue;
        }
      }
      overflow_.push_back(entry);
    }
  }
  grow_at_ = std::max<std::size_t>(2 * size_, 4096);
}

void Engine::sweep_stale() {
  const auto is_stale = [this](const Entry& entry) {
    return gens_[entry.slot] != entry.gen;
  };
  std::size_t removed = 0;
  const auto filter = [&](std::vector<Entry>& entries) {
    const std::size_t before = entries.size();
    std::erase_if(entries, is_stale);
    removed += before - entries.size();
  };
  filter(active_);
  for (std::size_t day = 0; day < kDays; ++day) {
    filter(buckets_[day]);
    if (buckets_[day].empty()) {
      bucket_bits_[day >> 6] &= ~(std::uint64_t(1) << (day & 63));
    }
  }
  // Overflow: stable compaction preserves the sorted-prefix invariant;
  // only the prefix length needs recomputing.
  std::size_t kept = 0;
  std::size_t kept_sorted = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    if (is_stale(overflow_[i])) {
      ++removed;
      continue;
    }
    overflow_[kept++] = overflow_[i];
    if (i < overflow_sorted_) kept_sorted = kept;
  }
  overflow_.resize(kept);
  overflow_sorted_ = kept_sorted;
  size_ -= removed;
  stale_ -= removed;
}

bool Engine::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t gen = gen_of(id);
  if (gen == 0 || slot >= gens_.size() || gens_[slot] != gen) return false;
  release_slot(slot);
  --live_count_;
  ++stale_;
  // Keep the stale share bounded even when cancelled days are never
  // reached (run_until stopped early, service forks abandoned).
  if (stale_ > std::max(kSweepFloor, live_count_)) sweep_stale();
  return true;
}

bool Engine::step() {
  if (!settle_front()) return false;
  // A copy: a callback that steps the engine itself moves dispatching_.
  const Entry entry = active_.back();
  dispatching_ = entry;
  active_.pop_back();
  --size_;
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
  if (++gens_[entry.slot] == 0) gens_[entry.slot] = 1;
  --live_count_;
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
    if (active_.back().time > t_end) break;
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

PeriodicTask::PeriodicTask(Engine& engine, SimTime period,
                           std::function<bool()> fn)
    : engine_(engine), period_(period), fn_(std::move(fn)) {
  if (period_ <= 0.0) {
    throw std::invalid_argument("PeriodicTask: non-positive period");
  }
}

PeriodicTask::~PeriodicTask() { stop(); }

void PeriodicTask::start(SimTime first_delay) {
  stop();
  base_ = engine_.now() + first_delay;
  ticks_ = 0;
  event_ = engine_.schedule_after(first_delay, [this] { fire(); });
}

void PeriodicTask::stop() {
  if (event_ != kInvalidEvent) {
    engine_.cancel(event_);
    event_ = kInvalidEvent;
  }
}

void PeriodicTask::fire() {
  event_ = kInvalidEvent;
  if (!fn_()) return;
  ++ticks_;
  // Closed form, not now + period: repeated addition accumulates one
  // rounding error per tick and drifts over ~1e6-period horizons.
  // Monotone fp rounding guarantees base + k*p >= base + (k-1)*p = now.
  event_ = engine_.schedule_at(base_ + static_cast<double>(ticks_) * period_,
                               [this] { fire(); });
}

}  // namespace dmr::sim
