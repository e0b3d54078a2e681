// gcopss-tidy self-test fixture: hot-alloc positives (direct and transitive
// allocation under GCOPSS_HOT, by new/make_shared and by container growth)
// and the GCOPSS_COLD barrier negatives. Lexed by the checker, never
// compiled — the annotation macros appear as plain tokens, which is exactly
// what the checker matches.
#include <memory>
#include <vector>

namespace fixture {

struct Ev {
  int x = 0;
};

struct Pool {
  Ev* freeList = nullptr;
  int live = 0;
};

// Deliberate growth path: the cold barrier stops the hot-path walk, so the
// allocation below is NOT a finding even though acquireHot() calls it.
GCOPSS_COLD Ev* refillSlab(Pool& p) {
  p.live += 64;
  return new Ev[64];
}

Ev* slowPath(Pool& p) {
  p.live += 1;
  return new Ev();  // gcopss-tidy:expect(hot-alloc)
}

GCOPSS_HOT Ev* acquireHot(Pool& p) {
  if (p.freeList != nullptr) {
    Ev* e = p.freeList;
    p.freeList = nullptr;
    return e;
  }
  if (p.live > 128) return slowPath(p);
  return refillSlab(p);
}

GCOPSS_HOT void fanOut(Pool& p) {
  auto sp = std::make_shared<Ev>();  // gcopss-tidy:expect(hot-alloc)
  p.live += sp->x;
}

// Negative: allocation in a plain (neither hot nor reachable-from-hot)
// function is nobody's business.
Ev* coldSetup() {
  return new Ev[8];
}

// Negative: a justified allow() accepts a measured, amortized growth path.
GCOPSS_HOT void pushBurst(Pool& p) {
  if (p.live == 0) {
    // gcopss-tidy: allow(hot-alloc) amortized doubling, measured allocation-free in steady state
    p.freeList = new Ev[2];
  }
  p.live += 2;
}

// Container growth: a `.resize(` or `.reserve(` member call may reallocate.
struct Ring {
  std::vector<Ev*> slots;
  std::vector<int>* counts = nullptr;
};

GCOPSS_HOT void pushSlot(Ring& r, Ev* e) {
  r.slots.resize(r.slots.size() + 1);  // gcopss-tidy:expect(hot-alloc)
  r.slots.back() = e;
}

void widenCounts(Ring& r, std::size_t n) {
  r.counts->reserve(n);  // gcopss-tidy:expect(hot-alloc)
}

// Negative: the same growth behind the cold barrier; reading size() and
// capacity() on the hot path is not growth.
GCOPSS_COLD void growSlots(Ring& r) {
  r.slots.reserve(2 * r.slots.capacity() + 1);
}

GCOPSS_HOT void admitSlot(Ring& r, std::size_t n) {
  if (r.slots.size() == r.slots.capacity()) growSlots(r);
  widenCounts(r, n);
}

}  // namespace fixture
