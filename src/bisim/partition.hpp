// State partitions for bisimulation minimisation.
//
// A Partition maps every state of an LTS (or IMC) to a block id in
// 0..num_blocks()-1.  Partition-refinement algorithms start from an initial
// partition (a single block, or a reward-compatible grouping) and split
// blocks until signatures stabilise.  SignatureTable is the one place where
// those signatures are interned into new block ids.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "lts/lts.hpp"

namespace multival::bisim {

using BlockId = std::uint32_t;

class Partition {
 public:
  /// Trivial partition: all @p n states in block 0 (no block if n == 0).
  explicit Partition(std::size_t n);

  /// Partition from an explicit assignment.  Block ids must be dense
  /// (every id in 0..max used at least once is not verified; callers use
  /// normalize() when needed).
  Partition(std::vector<BlockId> block_of, std::size_t num_blocks);

  [[nodiscard]] BlockId block_of(lts::StateId s) const {
    return block_of_[s];
  }
  [[nodiscard]] std::size_t num_blocks() const { return num_blocks_; }
  [[nodiscard]] std::size_t num_states() const { return block_of_.size(); }

  void set_block(lts::StateId s, BlockId b);

  /// Renumbers block ids densely (0..k-1) preserving the grouping; returns
  /// the number of blocks.
  std::size_t normalize();

  /// True if both partitions induce the same grouping of states.
  [[nodiscard]] bool same_grouping(const Partition& other) const;

  /// The states of each block.
  [[nodiscard]] std::vector<std::vector<lts::StateId>> blocks() const;

  /// Intersection refinement: the coarsest partition finer than both.
  [[nodiscard]] static Partition intersect(const Partition& a,
                                           const Partition& b);

 private:
  std::vector<BlockId> block_of_;
  std::size_t num_blocks_ = 0;
};

/// One element of a refinement signature.  An edge (action a, target block
/// b) is edge_elem(a, b); its tag keeps it apart from a bare old block id
/// (< 2^32), which sorts first.
using SigElem = std::uint64_t;
inline constexpr SigElem kEdgeTag = 1ull << 63;

[[nodiscard]] inline SigElem edge_elem(lts::ActionId a, BlockId b) {
  return kEdgeTag | (static_cast<SigElem>(a) << 32) | b;
}

/// Append-only storage for signatures, in fixed-size chunks: a stored
/// signature never moves, and growing copies nothing (so resident memory
/// tracks the live signatures, not a doubling vector's past buffers).
class SignatureArena {
 public:
  /// Copies @p sig in; the copy stays valid until clear().
  const SigElem* store(std::span<const SigElem> sig);

  /// Forgets every stored signature, keeping the chunks for reuse.
  void clear();

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;  // elements

  std::vector<std::unique_ptr<SigElem[]>> chunks_;  // kChunk elements each
  std::vector<std::unique_ptr<SigElem[]>> large_;   // signatures > kChunk
  std::size_t chunk_ = 0;  // chunk being filled
  std::size_t used_ = 0;   // elements used in chunks_[chunk_]
};

/// Interns signatures (sequences of SigElem) as dense block ids, handed out
/// 0, 1, 2, ... in first-insertion order.
///
/// Each distinct signature is stored once in a SignatureArena; per id the
/// table keeps its address, length and hash.  Lookup is open addressing
/// (linear probing over a power-of-two slot array of ids) with a cached-hash
/// check and a memcmp of the stored copy.  reset() forgets every signature
/// but keeps the buffers, so one table serves every refinement round.
class SignatureTable {
 public:
  /// Forgets every signature and makes room for @p capacity of them without
  /// rehashing (the table still grows past it).
  void reset(std::size_t capacity);

  /// The id of @p sig, interning it if new.
  BlockId intern(std::span<const SigElem> sig);

  /// Number of distinct signatures interned since the last reset().
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  /// The signature interned as @p id.
  [[nodiscard]] std::span<const SigElem> signature(BlockId id) const {
    return {data_[id], length_[id]};
  }

 private:
  void rehash(std::size_t num_slots);

  SignatureArena arena_;
  std::vector<const SigElem*> data_;
  std::vector<std::uint32_t> length_;
  std::vector<std::uint64_t> hash_;
  std::vector<BlockId> slots_;  // kEmptySlot or an id
};

}  // namespace multival::bisim
