#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.hpp"

namespace gcopss {

// Kirsch–Mitzenmacher probe schedule for a Bloom geometry (`bits` bits, `k`
// probes): probe i lands on index(h + i * (mix64(h)|1)). The Subscription
// Table (copss/st.hpp) probes every face filter through one schedule, and
// test models rebuild a face's expected bits with the same geometry. The
// positions feed matching decisions, so they are behaviour, not just speed.
class BloomProbeSchedule {
 public:
  explicit BloomProbeSchedule(std::size_t bits = 1 << 14, unsigned k = 7)
      : bits_(bits), k_(k) {
    if (bits > 0 && (bits & (bits - 1)) == 0) mask_ = bits - 1;
  }

  // Reduce a probe value to a bit index. `x % 2^k == x & (2^k - 1)`, so for
  // the (default) power-of-two sizes the mask path lands on exactly the same
  // bits as the modulo — only the division is gone.
  std::size_t index(std::uint64_t x) const {
    return static_cast<std::size_t>(mask_ != 0 ? x & mask_ : x % bits_);
  }

  // Enumerate the probe positions (bit indices) `nameHash` maps to, in probe
  // order.
  template <typename Fn>
  void forEachProbe(std::uint64_t nameHash, Fn&& fn) const {
    const std::uint64_t h2 = mix64(nameHash) | 1;
    for (unsigned i = 0; i < k_; ++i) fn(index(nameHash + i * h2));
  }

  // Like forEachProbe, but stops as soon as `fn` returns false (a filter
  // probe bails at its first clear bit). Returns true iff every probe ran.
  template <typename Fn>
  bool forEachProbeWhile(std::uint64_t nameHash, Fn&& fn) const {
    const std::uint64_t h2 = mix64(nameHash) | 1;
    for (unsigned i = 0; i < k_; ++i) {
      if (!fn(index(nameHash + i * h2))) return false;
    }
    return true;
  }

  std::size_t bits() const { return bits_; }
  unsigned hashes() const { return k_; }

 private:
  std::size_t bits_;
  unsigned k_;
  std::uint64_t mask_ = 0;  // bits-1 when bits is a power of two, else 0
};

}  // namespace gcopss
