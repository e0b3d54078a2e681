#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "common/thread_annotations.hpp"

namespace gcopss {

// Anti-replay window over one publisher's seqs (RFC 6479): the highest seq
// recorded plus a bitmap of the kSpan seqs ending at it. Contract:
//   - every seq in (highest - kSpan, highest] is tracked exactly;
//   - a seq below that span counts as seen.
// A receiver deduplicating through it is therefore at-most-once always, and
// exactly-once for every copy that arrives within kSpan of the publisher's
// newer seqs.
class SeqWindow {
 public:
  static constexpr std::uint64_t kSpan = 128;

  // True iff `seq` was already recorded or lies below the span; otherwise
  // records it.
  bool checkAndInsert(std::uint64_t seq) {
    if (seq > top_) {
      advance(seq - top_);
      top_ = seq;
      bits_[0] |= 1;
      return false;
    }
    const std::uint64_t age = top_ - seq;
    if (age >= kSpan) return true;
    std::uint64_t& word = bits_[age / 64];
    const std::uint64_t bit = std::uint64_t{1} << (age % 64);
    if (word & bit) return true;
    word |= bit;
    return false;
  }

  // Nothing recorded yet. Bit 0 is `top_` itself, set by the first insert
  // and by every one that raises `top_`.
  bool empty() const { return (bits_[0] & 1) == 0; }

 private:
  static_assert(kSpan == 128, "advance() shifts exactly two words");

  // Age every recorded seq by `by` >= 1 positions.
  void advance(std::uint64_t by) {
    if (by >= kSpan) {
      bits_[0] = bits_[1] = 0;
    } else if (by >= 64) {
      bits_[1] = bits_[0] << (by - 64);
      bits_[0] = 0;
    } else {
      bits_[1] = (bits_[1] << by) | (bits_[0] >> (64 - by));
      bits_[0] <<= by;
    }
  }

  std::uint64_t top_ = 0;
  // Bit i (word i / 64, bit i % 64) set: seq top_ - i was recorded.
  std::uint64_t bits_[2] = {0, 0};
};

// Open-addressed map from a 64-bit key to an inline SeqWindow: one window
// per publisher at a client, per (publisher, face) at a router. Flat slots,
// linear probing, grown at half load. A slot is free while its window is
// empty, so no key value is reserved as a marker. There is no erase: a
// crash clears the whole table.
class SeqWindowTable {
 public:
  // SeqWindow::checkAndInsert(seq) on the window for `key`, created empty on
  // first use.
  bool checkAndInsert(std::uint64_t key, std::uint64_t seq) {
    if (used_ * 2 >= slots_.size()) grow();
    std::size_t i = home(key);
    while (!slots_[i].window.empty() && slots_[i].key != key) i = (i + 1) & mask_;
    Slot& slot = slots_[i];
    if (slot.window.empty()) {
      slot.key = key;
      ++used_;
    }
    return slot.window.checkAndInsert(seq);
  }

  void clear() {
    slots_.clear();
    used_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    SeqWindow window;
  };

  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>(mix64(key)) & mask_;
  }

  // Amortized growth reachable from the hot stForward: doubles the table a
  // handful of times per run, then never again.
  GCOPSS_COLD void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.window.empty()) continue;
      std::size_t i = home(s.key);
      while (!slots_[i].window.empty()) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t used_ = 0;
};

}  // namespace gcopss
