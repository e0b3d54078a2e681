#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "common/units.hpp"

namespace gcopss {

using NodeId = std::int32_t;
constexpr NodeId kInvalidNode = -1;

// Base class for every packet in the simulation. A single Kind enum spans all
// protocol families (NDN, COPSS, IP baseline) so routers can branch on kind
// without RTTI; `packet_cast` checks the kind before downcasting.
//
// Packets are intrusively reference-counted (see RefPtr below): multicast
// fan-out hands the same immutable payload to every face as a pointer bump
// with no control-block allocation. The count is atomic because the parallel
// DES engine hands references to several threads: a multicast fan-out retains
// on the sender's shard and the last reference can die on a receiver's shard
// (relaxed increments, acq/rel decrement — uncontended, a plain locked add).
// The count lives in the object, so a packet must reach a RefPtr straight
// from `new` (makePacket/makeMutablePacket do this).
struct Packet {
  enum class Kind : std::uint8_t {
    // NDN engine
    Interest,
    Data,
    // COPSS engine
    Subscribe,
    Unsubscribe,
    Multicast,
    FibAdd,
    // COPSS RP-migration control (Section IV-B)
    RpHandoff,
    StJoin,
    StConfirm,
    StLeave,
    // COPSS fault recovery (reliable publish, RP liveness, ST resync)
    PubAck,
    RpHeartbeat,
    StResync,
    // COPSS epoch reconciliation (restart-time RP ownership handshake)
    RpReclaim,
    RpDemote,
    // IP baseline
    IpUnicast,
    IpMulticastPkt,
    IpGroupJoin,
    IpGroupLeave,
  };

  Packet(Kind k, Bytes sz) : kind(k), size(sz) {}
  virtual ~Packet() = default;

  // Copying is for clonePacket() of a derived packet only (the copy starts
  // a fresh refcount); assignment would desync count and identity, so both
  // forms are deleted. This replaces the old public-copy/deleted-assign
  // mix, which let any call site slice-copy a packet by accident.
  Packet& operator=(const Packet&) = delete;
  Packet& operator=(Packet&&) = delete;

  Kind kind;
  Bytes size;

 protected:
  Packet(const Packet& other) : kind(other.kind), size(other.size) {}

 private:
  template <typename T>
  friend class RefPtr;

  mutable std::atomic<std::uint32_t> refs_{0};
};

// Intrusive smart pointer for Packet hierarchies. shared_ptr-shaped API for
// the subset the codebase uses; copying is one atomic refcount increment.
template <typename T>
class RefPtr {
 public:
  RefPtr() = default;
  RefPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Adopt a freshly new'ed packet (or retain an existing live one).
  explicit RefPtr(T* p) : p_(p) { retain(); }

  RefPtr(const RefPtr& o) : p_(o.p_) { retain(); }
  RefPtr(RefPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }

  // Converting copy/move (derived -> base, mutable -> const).
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  RefPtr(const RefPtr<U>& o) : p_(o.get()) {  // NOLINT(google-explicit-constructor)
    retain();
  }
  template <typename U, typename = std::enable_if_t<std::is_convertible_v<U*, T*>>>
  RefPtr(RefPtr<U>&& o) noexcept : p_(o.release()) {}  // NOLINT(google-explicit-constructor)

  RefPtr& operator=(const RefPtr& o) {
    RefPtr(o).swap(*this);
    return *this;
  }
  RefPtr& operator=(RefPtr&& o) noexcept {
    RefPtr(std::move(o)).swap(*this);
    return *this;
  }
  RefPtr& operator=(std::nullptr_t) {
    reset();
    return *this;
  }
  ~RefPtr() { releaseRef(); }

  T* get() const { return p_; }
  T& operator*() const { return *p_; }
  T* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  void reset() { RefPtr().swap(*this); }
  void swap(RefPtr& o) noexcept { std::swap(p_, o.p_); }

  // Hand the raw pointer over without touching the count (move plumbing).
  T* release() noexcept {
    T* p = p_;
    p_ = nullptr;
    return p;
  }

  friend bool operator==(const RefPtr& a, const RefPtr& b) { return a.p_ == b.p_; }
  friend bool operator==(const RefPtr& a, std::nullptr_t) { return a.p_ == nullptr; }

 private:
  void retain() {
    if (!p_) return;
    // A retain always starts from an existing reference, so relaxed order
    // suffices — visibility of the object is carried by whatever handed the
    // pointer across threads (the round barrier, in the parallel DES).
    p_->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  void releaseRef() {
    if (!p_) return;
    // acq_rel: the final decrement must observe every other shard's writes
    // (release) before the delete runs here (acquire).
    if (p_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) delete p_;
  }

  T* p_ = nullptr;
};

using PacketPtr = RefPtr<const Packet>;

template <typename T>
const T& packet_cast(const PacketPtr& p) {
  assert(p && p->kind == T::kKind);
  return static_cast<const T&>(*p);
}

// static_pointer_cast analogue: `packet_pointer_cast<DataPacket>(pkt)`
// yields RefPtr<const DataPacket>. The caller vouches for the kind (assert
// via packet_cast where unsure).
template <typename T, typename U>
RefPtr<const T> packet_pointer_cast(const RefPtr<U>& p) {
  return RefPtr<const T>(static_cast<const T*>(p.get()));
}

// dynamic_pointer_cast analogue for kind-agnostic probing (codecs, tests).
template <typename T, typename U>
RefPtr<const T> packet_dynamic_cast(const RefPtr<U>& p) {
  return RefPtr<const T>(dynamic_cast<const T*>(p.get()));
}

// Immutable packet, the normal case.
template <typename T, typename... Args>
RefPtr<const T> makePacket(Args&&... args) {
  // gcopss-tidy: allow(hot-alloc) the audited packet-creation boundary: sources/decoders allocate once per packet; forwarding fan-out shares it by RefPtr
  return RefPtr<const T>(new T(std::forward<Args>(args)...));
}

// Mutable packet for build-then-freeze call sites: fill fields, then let it
// convert to PacketPtr on send.
template <typename T, typename... Args>
RefPtr<T> makeMutablePacket(Args&&... args) {
  // gcopss-tidy: allow(hot-alloc) the audited packet-creation boundary: one allocation per packet built, never per forwarded copy
  return RefPtr<T>(new T(std::forward<Args>(args)...));
}

// Explicit copy of a (derived) packet with a fresh refcount.
template <typename T>
RefPtr<const T> clonePacket(const T& src) {
  // gcopss-tidy: allow(hot-alloc) allocation is the point: the sanctioned copy-on-write boundary; hot paths forward by RefPtr and clone only to mutate
  return RefPtr<const T>(new T(src));
}

}  // namespace gcopss
