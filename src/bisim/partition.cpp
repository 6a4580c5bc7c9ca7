#include "bisim/partition.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

namespace multival::bisim {

Partition::Partition(std::size_t n)
    : block_of_(n, 0), num_blocks_(n == 0 ? 0 : 1) {}

Partition::Partition(std::vector<BlockId> block_of, std::size_t num_blocks)
    : block_of_(std::move(block_of)), num_blocks_(num_blocks) {
  for (const BlockId b : block_of_) {
    if (b >= num_blocks_) {
      throw std::invalid_argument("Partition: block id out of range");
    }
  }
}

void Partition::set_block(lts::StateId s, BlockId b) {
  if (s >= block_of_.size()) {
    throw std::out_of_range("Partition::set_block: unknown state");
  }
  block_of_[s] = b;
  if (b >= num_blocks_) {
    num_blocks_ = b + 1;
  }
}

std::size_t Partition::normalize() {
  std::unordered_map<BlockId, BlockId> remap;
  remap.reserve(num_blocks_);
  for (BlockId& b : block_of_) {
    const auto it = remap.find(b);
    if (it == remap.end()) {
      const auto nb = static_cast<BlockId>(remap.size());
      remap.emplace(b, nb);
      b = nb;
    } else {
      b = it->second;
    }
  }
  num_blocks_ = remap.size();
  return num_blocks_;
}

bool Partition::same_grouping(const Partition& other) const {
  if (block_of_.size() != other.block_of_.size()) {
    return false;
  }
  // Two partitions are equal iff the mapping between their block ids is a
  // bijection consistent across all states.
  std::unordered_map<BlockId, BlockId> fwd;
  std::unordered_map<BlockId, BlockId> bwd;
  for (std::size_t s = 0; s < block_of_.size(); ++s) {
    const BlockId a = block_of_[s];
    const BlockId b = other.block_of_[s];
    const auto fit = fwd.find(a);
    if (fit == fwd.end()) {
      fwd.emplace(a, b);
    } else if (fit->second != b) {
      return false;
    }
    const auto bit = bwd.find(b);
    if (bit == bwd.end()) {
      bwd.emplace(b, a);
    } else if (bit->second != a) {
      return false;
    }
  }
  return true;
}

std::vector<std::vector<lts::StateId>> Partition::blocks() const {
  std::vector<std::vector<lts::StateId>> out(num_blocks_);
  for (std::size_t s = 0; s < block_of_.size(); ++s) {
    out[block_of_[s]].push_back(static_cast<lts::StateId>(s));
  }
  return out;
}

Partition Partition::intersect(const Partition& a, const Partition& b) {
  if (a.num_states() != b.num_states()) {
    throw std::invalid_argument("Partition::intersect: size mismatch");
  }
  std::vector<BlockId> out(a.num_states(), 0);
  std::unordered_map<std::uint64_t, BlockId> pairs;
  for (std::size_t s = 0; s < a.num_states(); ++s) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(a.block_of_[s]) << 32) | b.block_of_[s];
    const auto it = pairs.find(key);
    if (it == pairs.end()) {
      const auto nb = static_cast<BlockId>(pairs.size());
      pairs.emplace(key, nb);
      out[s] = nb;
    } else {
      out[s] = it->second;
    }
  }
  return Partition(std::move(out), pairs.empty() ? 0 : pairs.size());
}

namespace {

constexpr BlockId kEmptySlot = static_cast<BlockId>(-1);

std::uint64_t hash_signature(std::span<const SigElem> sig) {
  std::uint64_t h = sig.size();
  for (const SigElem e : sig) {
    h = (h ^ e) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

const SigElem* SignatureArena::store(std::span<const SigElem> sig) {
  if (sig.size() > kChunk) {
    large_.push_back(std::make_unique_for_overwrite<SigElem[]>(sig.size()));
    std::copy(sig.begin(), sig.end(), large_.back().get());
    return large_.back().get();
  }
  if (chunks_.empty() || used_ + sig.size() > kChunk) {
    if (!chunks_.empty()) {
      ++chunk_;
    }
    if (chunk_ == chunks_.size()) {
      chunks_.push_back(std::make_unique_for_overwrite<SigElem[]>(kChunk));
    }
    used_ = 0;
  }
  SigElem* out = chunks_[chunk_].get() + used_;
  std::copy(sig.begin(), sig.end(), out);
  used_ += sig.size();
  return out;
}

void SignatureArena::clear() {
  large_.clear();
  chunk_ = 0;
  used_ = 0;
}

void SignatureTable::reset(std::size_t capacity) {
  arena_.clear();
  data_.clear();
  length_.clear();
  hash_.clear();
  // Load factor at most 1/2.
  const std::size_t num_slots = std::bit_ceil(std::max<std::size_t>(
      16, 2 * capacity));
  if (slots_.size() == num_slots) {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
  } else {
    slots_.assign(num_slots, kEmptySlot);
  }
}

void SignatureTable::rehash(std::size_t num_slots) {
  slots_.assign(num_slots, kEmptySlot);
  const std::size_t mask = num_slots - 1;
  for (BlockId id = 0; id < hash_.size(); ++id) {
    std::size_t i = hash_[id] & mask;
    while (slots_[i] != kEmptySlot) {
      i = (i + 1) & mask;
    }
    slots_[i] = id;
  }
}

BlockId SignatureTable::intern(std::span<const SigElem> sig) {
  if (2 * (size() + 1) > slots_.size()) {
    rehash(std::max<std::size_t>(16, 2 * slots_.size()));
  }
  const std::uint64_t h = hash_signature(sig);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = h & mask;
  while (slots_[i] != kEmptySlot) {
    const BlockId id = slots_[i];
    if (hash_[id] == h && length_[id] == sig.size() &&
        (sig.empty() ||
         std::memcmp(data_[id], sig.data(), sig.size_bytes()) == 0)) {
      return id;
    }
    i = (i + 1) & mask;
  }
  const auto id = static_cast<BlockId>(size());
  slots_[i] = id;
  data_.push_back(arena_.store(sig));
  length_.push_back(static_cast<std::uint32_t>(sig.size()));
  hash_.push_back(h);
  return id;
}

}  // namespace multival::bisim
