#pragma once

// Static-contract annotations for the shard-safe substrate.
//
// Two families live here (see docs/STATIC_ANALYSIS.md):
//
//   * Clang thread-safety capabilities (GCOPSS_GUARDED_BY / GCOPSS_REQUIRES
//     and the annotated Mutex wrapper below). Under Clang the build promotes
//     -Wthread-safety to an error, so "touched guarded state without its
//     mutex" is a compile failure; under GCC every attribute expands to
//     nothing and the wrappers are zero-cost forwarding shims.
//
//   * Hot-path / ownership markers (GCOPSS_HOT, GCOPSS_COLD,
//     GCOPSS_SHARD_CONFINED) consumed by tools/gcopss-tidy. A function
//     marked GCOPSS_HOT must not transitively reach `new` / make_shared /
//     malloc in project code (rule hot-alloc); GCOPSS_COLD marks a
//     deliberate growth path (pool refill, route insert) that the traversal
//     treats as a barrier — each use carries its justification in a comment.
//
// All simulation-facing state is either confined to one shard (routers, ST,
// FIB, fault RNG lanes, the SPSC merge buffers — barriers/ownership order
// those, not locks), grown only from sequential context (a Network's
// NameTable), or guarded by the one real mutex in the tree: the
// ParallelSimulator round mutex.

#include <mutex>

#if defined(__clang__)
#define GCOPSS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GCOPSS_THREAD_ANNOTATION(x)
#endif

#define GCOPSS_CAPABILITY(name) GCOPSS_THREAD_ANNOTATION(capability(name))
#define GCOPSS_SCOPED_CAPABILITY GCOPSS_THREAD_ANNOTATION(scoped_lockable)
#define GCOPSS_GUARDED_BY(x) GCOPSS_THREAD_ANNOTATION(guarded_by(x))
#define GCOPSS_PT_GUARDED_BY(x) GCOPSS_THREAD_ANNOTATION(pt_guarded_by(x))
#define GCOPSS_REQUIRES(...) \
  GCOPSS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define GCOPSS_ACQUIRE(...) \
  GCOPSS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define GCOPSS_RELEASE(...) \
  GCOPSS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define GCOPSS_EXCLUDES(...) \
  GCOPSS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define GCOPSS_NO_THREAD_SAFETY_ANALYSIS \
  GCOPSS_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---- gcopss-tidy markers (and real compiler hints where they exist) ----

// Hot-path contract: steady-state allocation-free. gcopss-tidy rule
// `hot-alloc` rejects any project-code allocation transitively reachable
// from a GCOPSS_HOT function unless the allocating path is GCOPSS_COLD.
#define GCOPSS_HOT [[gnu::hot]]
// Deliberate allocation site reachable from a hot path (slab refill, table
// growth): amortized away in steady state, verified dynamically by the
// bench_core allocation interposer. Justify every use in a comment.
#define GCOPSS_COLD [[gnu::cold]]
// Documentation marker: state owned by exactly one shard/worker at any time;
// safety comes from partitioning + the round barriers, not from a lock.
#define GCOPSS_SHARD_CONFINED

namespace gcopss {

// std::mutex with thread-safety capability annotations. libstdc++ types are
// unannotated, so Clang's analysis cannot see their acquire/release; these
// wrappers are the annotated boundary the rest of the tree locks through.
class GCOPSS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() GCOPSS_ACQUIRE() { m_.lock(); }
  void unlock() GCOPSS_RELEASE() { m_.unlock(); }

 private:
  friend class MutexLock;
  friend class CvLock;
  std::mutex m_;
};

// Scoped exclusive lock over Mutex (lock_guard shape).
class GCOPSS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& m) GCOPSS_ACQUIRE(m) : m_(m) { m_.lock(); }
  ~MutexLock() GCOPSS_RELEASE() { m_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& m_;
};

// Scoped exclusive lock that is-a std::unique_lock so it can park on a
// std::condition_variable (ParallelSimulator's round cv). The cv's internal
// unlock/relock inside wait() is invisible to the analysis — the capability
// is held for the whole scope as far as Clang is concerned, which is the
// standard (and sound) way to annotate the cv-wait pattern: the predicate
// only runs with the lock held.
class GCOPSS_SCOPED_CAPABILITY CvLock : public std::unique_lock<std::mutex> {
 public:
  explicit CvLock(Mutex& m) GCOPSS_ACQUIRE(m)
      : std::unique_lock<std::mutex>(m.m_) {}
  // Base-class destructor does the actual unlock.
  ~CvLock() GCOPSS_RELEASE() {}
  CvLock(const CvLock&) = delete;
  CvLock& operator=(const CvLock&) = delete;
};



}  // namespace gcopss
