#include "explore/state_store.hpp"

#include <algorithm>
#include <stdexcept>

namespace multival::explore {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Word-at-a-time multiply-xorshift hash.  The fingerprint and the
// collision-check hash use two different seeds: they must be independent
// functions of the words — deriving the check from the primary would make
// collisions of a full-width fingerprint undetectable.
std::uint64_t hash_words(StateView state, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const Word w : state) {
    h = (h ^ w) * 0x9fb21c651e98df25ull;
    h ^= h >> 28;
  }
  return splitmix64(h);
}

constexpr std::uint64_t kPrimarySeed = 14695981039346656037ull;
constexpr std::uint64_t kCheckSeed = 0x2545f4914f6cdd1dull;

bool is_power_of_two(unsigned v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

StateStore::StateStore(std::size_t width) : StateStore(width, Options{}) {}

StateStore::StateStore(std::size_t width, const Options& options)
    : width_(width), options_(options) {
  if (width_ == 0) {
    throw std::invalid_argument("StateStore: width must be at least 1");
  }
  if (!is_power_of_two(options_.stripes)) {
    throw std::invalid_argument("StateStore: stripes must be a power of two");
  }
  if (options_.fingerprint_bits < 1 || options_.fingerprint_bits > 64) {
    throw std::invalid_argument("StateStore: fingerprint_bits out of range");
  }
  mask_ = options_.fingerprint_bits == 64
              ? ~0ull
              : (1ull << options_.fingerprint_bits) - 1;
  stripes_.reserve(options_.stripes);
  for (unsigned i = 0; i < options_.stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

void StateStore::grow(Stripe& stripe) {
  std::vector<Slot> old(std::max<std::size_t>(64, 2 * stripe.slots.size()));
  old.swap(stripe.slots);
  const std::size_t mask = stripe.slots.size() - 1;
  for (const Slot& slot : old) {
    if (slot.id == lts::kNoState) {
      continue;
    }
    std::size_t i = splitmix64(slot.key) & mask;
    while (stripe.slots[i].id != lts::kNoState) {
      i = (i + 1) & mask;
    }
    stripe.slots[i] = slot;
  }
}

StateStore::Inserted StateStore::insert(StateView state) {
  const bool exact = options_.mode == StoreMode::kExact;
  // Stripe and probe start depend on the (masked) key only, so that two
  // states sharing a fingerprint always meet in the same slot chain.
  const std::uint64_t key = hash_words(state, kPrimarySeed) & mask_;
  const std::uint32_t check =
      exact ? 0 : static_cast<std::uint32_t>(hash_words(state, kCheckSeed));
  const std::uint64_t mix = splitmix64(key);
  Stripe& stripe = *stripes_[(mix >> 40) & (stripes_.size() - 1)];

  core::MutexLock lock(stripe.mu);
  if (2 * (stripe.used + 1) > stripe.slots.size()) {
    grow(stripe);
  }
  const std::size_t mask = stripe.slots.size() - 1;
  for (std::size_t i = mix & mask;; i = (i + 1) & mask) {
    Slot& slot = stripe.slots[i];
    if (slot.id == lts::kNoState) {
      slot.key = key;
      slot.id = next_id_.fetch_add(1, std::memory_order_relaxed);
      if (exact) {
        slot.aux = static_cast<std::uint32_t>(stripe.arena.size() / width_);
        stripe.arena.insert(stripe.arena.end(), state.begin(), state.end());
      } else {
        slot.aux = check;
      }
      ++stripe.used;
      return Inserted{slot.id, true};
    }
    if (slot.key != key) {
      continue;
    }
    if (exact) {
      const Word* stored = stripe.arena.data() + slot.aux * width_;
      if (!std::equal(state.begin(), state.end(), stored)) {
        continue;
      }
    } else if (slot.aux != check) {
      ++stripe.collisions;
      return Inserted{slot.id, false};
    }
    ++stripe.hits;
    return Inserted{slot.id, false};
  }
}

std::uint64_t StateStore::dedup_hits() const {
  std::uint64_t n = 0;
  for (const auto& stripe : stripes_) {
    core::MutexLock lock(stripe->mu);
    n += stripe->hits;
  }
  return n;
}

std::uint64_t StateStore::collisions() const {
  std::uint64_t n = 0;
  for (const auto& stripe : stripes_) {
    core::MutexLock lock(stripe->mu);
    n += stripe->collisions;
  }
  return n;
}

}  // namespace multival::explore
