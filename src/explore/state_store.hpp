// Concurrent hash-compacted state store for the exploration engine.
//
// Maps fixed-width state vectors (width() 32-bit words each) to dense ids,
// allocated in first-insert order.  Lock-striped: the key space is split
// over independent mutex-protected shards, so worker threads rarely
// contend.  Each shard is an open-addressing index (linear probing, load at
// most 1/2) over a flat word arena: a stored state costs its words plus one
// slot, never a per-state allocation.  Two memory modes:
//
//   kExact        — stores the full state words; no false dedup ever.
//   kFingerprint  — stores only a fingerprint of the state (Holzmann-style
//                   hash compaction).  Two distinct states may collide on
//                   the fingerprint, in which case the second is treated as
//                   already visited (its subtree may be truncated).  A
//                   32-bit independent check hash detects (and counts) the
//                   vast majority of such collisions; `collisions()` is
//                   therefore a lower bound, zero in exact mode.
//
// `fingerprint_bits` narrows the fingerprint below 64 bits (mainly to make
// collisions reproducible in tests).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sync.hpp"
#include "lts/lts.hpp"

namespace multival::explore {

/// One word of a state vector.
using Word = std::uint32_t;
/// A state: a fixed number of words, fixed per oracle (see oracle.hpp).
using StateView = std::span<const Word>;

enum class StoreMode {
  kExact,
  kFingerprint,
};

class StateStore {
 public:
  struct Options {
    StoreMode mode = StoreMode::kExact;
    int fingerprint_bits = 64;  ///< 1..64, kFingerprint only
    unsigned stripes = 64;      ///< number of lock stripes (power of two)
  };

  struct Inserted {
    lts::StateId id = 0;
    bool fresh = false;  ///< true iff this call created the id
  };

  /// A store of states of @p width words (at least 1); exact mode, 64
  /// stripes unless @p options say otherwise.
  explicit StateStore(std::size_t width);
  StateStore(std::size_t width, const Options& options);

  /// Returns the id of @p state (width() words), allocating the next dense
  /// id if unseen.  Thread-safe.
  Inserted insert(StateView state);

  [[nodiscard]] std::size_t width() const { return width_; }

  /// Number of distinct ids allocated.
  [[nodiscard]] std::size_t size() const {
    return next_id_.load(std::memory_order_relaxed);
  }

  /// Inserts that found an existing entry (states seen more than once).
  [[nodiscard]] std::uint64_t dedup_hits() const;

  /// Detected fingerprint collisions (distinct states merged); 0 in exact
  /// mode.
  [[nodiscard]] std::uint64_t collisions() const;

  [[nodiscard]] StoreMode mode() const { return options_.mode; }

 private:
  /// Exact mode: `key` is the full hash and `aux` the state's index in the
  /// shard's arena.  Fingerprint mode: `key` is the fingerprint and `aux`
  /// the check hash.
  struct Slot {
    std::uint64_t key = 0;
    lts::StateId id = lts::kNoState;  ///< kNoState marks an empty slot
    std::uint32_t aux = 0;
  };

  /// Counters live with their stripe, under its lock: a shared atomic
  /// bumped on every insert would be contended by every worker.
  struct alignas(64) Stripe {
    mutable core::Mutex mu;
    std::vector<Slot> slots MV_GUARDED_BY(mu);
    std::vector<Word> arena MV_GUARDED_BY(mu);  ///< exact mode: the states
    std::size_t used MV_GUARDED_BY(mu) = 0;
    std::uint64_t hits MV_GUARDED_BY(mu) = 0;
    std::uint64_t collisions MV_GUARDED_BY(mu) = 0;
  };

  /// Doubles @p stripe's index (at least 64 slots), rehashing every entry.
  static void grow(Stripe& stripe) MV_REQUIRES(stripe.mu);

  std::size_t width_;
  Options options_;
  std::uint64_t mask_ = ~0ull;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<std::uint32_t> next_id_{0};
};

}  // namespace multival::explore
