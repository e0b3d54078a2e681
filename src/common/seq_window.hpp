#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

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
static_assert(sizeof(SeqWindow) == 24);

// Dense index of a NodeId, sentinels included: kLocalFace (-2) -> 0,
// kInvalidNode (-1) -> 1, node n -> n + 2.
inline std::size_t denseNodeIndex(std::int32_t id) {
  assert(id >= -2);
  return static_cast<std::uint32_t>(id) + 2U;
}

// Numbers NodeIds 0, 1, 2, ... in the order they are first seen. A router
// numbers the publishers it hears (its rows) and the faces it uses (its
// slots) this way, so rows exist only for publishers seen.
class FirstUseIndex {
 public:
  std::uint32_t of(std::int32_t id) {
    const std::size_t i = denseNodeIndex(id);
    if (i >= numberOf_.size() || numberOf_[i] == 0) assign(i);
    return numberOf_[i] - 1;
  }

 private:
  // Amortized: runs once per id ever seen.
  GCOPSS_COLD void assign(std::size_t i) {
    if (i >= numberOf_.size()) numberOf_.resize(i + 1);
    numberOf_[i] = ++count_;
  }

  std::vector<std::uint32_t> numberOf_;  // denseNodeIndex(id) -> number + 1; 0: none
  std::uint32_t count_ = 0;
};

// Dense SeqWindows in rows, indexed with no hashing: the window for (row,
// slot) sits at row * width + slot, so a row is one contiguous run. A host
// has one slot and indexes its rows by denseNodeIndex(publisher). A router
// has a row per publisher it heard and a slot per face it used, both
// numbered by a FirstUseIndex, so all probes of one publication at a router
// land in one row. A row or slot past the end appears on first use, with
// any before it, and adding either keeps every window. Room reserved past
// the last row is never touched, so it never becomes resident. There is no
// erase: a crash resets everything.
class SeqWindowRows {
 public:
  // The window at (row, slot), created empty on first use. The reference is
  // valid until the next at(), which may move every window.
  SeqWindow& at(std::size_t row, std::size_t slot) {
    if (row >= rows_ || slot >= width_) makeRoom(row, slot);
    return windows_[row * width_ + slot];
  }

 private:
  // Amortized growth reachable from the hot stForward: a router widens its
  // rows once per face it ever uses, and room for rows doubles (from 16).
  // So the windows move only when the rows widen or their room doubles.
  GCOPSS_COLD void makeRoom(std::size_t row, std::size_t slot) {
    const std::size_t rows = std::max(rows_, row + 1);
    const std::size_t width = std::max(width_, slot + 1);
    if (width > width_ || rows * width > windows_.capacity()) {
      std::vector<SeqWindow> next;
      next.reserve(std::max({rows, 2 * rows_, std::size_t{16}}) * width);
      next.resize(rows_ * width);
      for (std::size_t r = 0; r < rows_; ++r) {
        std::copy_n(windows_.begin() + static_cast<std::ptrdiff_t>(r * width_), width_,
                    next.begin() + static_cast<std::ptrdiff_t>(r * width));
      }
      windows_ = std::move(next);
      width_ = width;
    }
    windows_.resize(rows * width_);
    rows_ = rows;
  }

  std::size_t rows_ = 0;
  std::size_t width_ = 0;  // slots per row
  std::vector<SeqWindow> windows_;
};

}  // namespace gcopss
