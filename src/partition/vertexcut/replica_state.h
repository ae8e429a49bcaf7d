#ifndef SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_
#define SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/dense_bitset.h"
#include "common/types.h"

namespace sgp {

/// Incrementally maintained replica sets A(u) used by the greedy vertex-cut
/// partitioners (PowerGraph greedy, HDRF). This is the "distributed table
/// with the values of A(u)" the paper notes greedy methods must share
/// among workers (Section 4.2.2). Sets are tiny (≤ k entries, overwhelmingly
/// ≤ 4 in practice), so each set keeps its first kInline entries in place
/// and only spills to a heap vector beyond that — the hot path performs no
/// allocation. Spilled vectors are kept sorted so hub vertices with
/// replicas on many partitions answer Contains() by binary search instead
/// of a linear scan (which degraded quadratically at large k).
///
/// An optional bit index (EnableBitIndex) additionally mirrors membership
/// into a dense vertex × partition BitMatrix. The batched ScoreCore reads
/// whole 64-candidate membership words from it (`RowWords`), replacing the
/// per-candidate Contains probes in the k-way scoring loops.
class ReplicaState {
 public:
  ReplicaState() = default;
  explicit ReplicaState(VertexId num_vertices) : sets_(num_vertices) {}

  /// Grows the vertex space to cover `u` (sources that discover ids).
  void EnsureVertex(VertexId u) {
    if (u >= sets_.size()) sets_.resize(static_cast<size_t>(u) + 1);
    if (bit_index_enabled_) bits_.EnsureRows(sets_.size());
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(sets_.size());
  }

  // ---------------------------------------------------------------------
  // Bit index.
  // ---------------------------------------------------------------------

  /// Mirrors membership into a vertex × k bit matrix (idempotent for a
  /// fixed k). Existing entries are replayed, so it can be enabled on a
  /// populated table; afterwards Add/Clear keep both views in sync.
  void EnableBitIndex(PartitionId k) {
    SGP_CHECK(k > 0);
    if (bit_index_enabled_ && bits_.cols() == k) return;
    bits_.Reset(sets_.size(), k);
    bit_index_enabled_ = true;
    for (VertexId u = 0; u < num_vertices(); ++u) {
      for (PartitionId p : Of(u)) bits_.Set(u, p);
    }
  }

  bool bit_index_enabled() const { return bit_index_enabled_; }
  uint64_t words_per_row() const { return bits_.words_per_row(); }

  /// Membership words of `u` (ceil(k/64) words, bit p set iff p ∈ A(u)).
  /// Valid only while the bit index is enabled.
  const uint64_t* RowWords(VertexId u) const { return bits_.Row(u); }

  // ---------------------------------------------------------------------
  // Set operations.
  // ---------------------------------------------------------------------

  /// True if partition `p` already holds a replica of `u`. Inline sets do
  /// one short linear scan; spilled sets binary-search the sorted vector.
  bool Contains(VertexId u, PartitionId p) const {
    const Set& s = sets_[u];
    if (s.size <= kInline) {
      const auto begin = s.inline_items.begin();
      return std::find(begin, begin + s.size, p) != begin + s.size;
    }
    return std::binary_search(s.overflow.begin(), s.overflow.end(), p);
  }

  /// Records that partition `p` now holds a replica of `u` (idempotent).
  /// With the bit index on, the membership test is one bit of the row the
  /// scorers just read; the set itself is touched only for a new replica.
  void Add(VertexId u, PartitionId p) {
    if (bit_index_enabled_ ? bits_.Test(u, p) : Contains(u, p)) return;
    sets_[u].Insert(p);
    ++total_entries_;
    if (sets_[u].size > kInline) {
      // Spilling moves all kInline+1 entries to the heap at once; later
      // additions grow the heap set by one.
      overflow_entries_ += sets_[u].size == kInline + 1 ? kInline + 1 : 1;
    }
    if (bit_index_enabled_) bits_.Set(u, p);
  }

  /// Partitions currently holding a replica of `u`: insertion order while
  /// the set is inline, ascending once it has spilled. Every consumer
  /// (least-loaded picks, intersection scans) is order-independent.
  std::span<const PartitionId> Of(VertexId u) const {
    return sets_[u].Items();
  }

  /// Empties the set of `u` (the sharded deltas reset touched vertices
  /// after each barrier without an O(n) sweep).
  void Clear(VertexId u) {
    Set& s = sets_[u];
    total_entries_ -= s.size;
    if (s.size > kInline) overflow_entries_ -= s.size;
    s.size = 0;
    s.overflow.clear();
    if (bit_index_enabled_) bits_.ClearRow(u);
  }

  /// Sum of all set sizes — the replica-table term of SynopsisBytes().
  uint64_t total_entries() const { return total_entries_; }

  /// Bytes of working state this table holds: the dense array of
  /// small-buffer sets, every heap-resident overflow entry, and the bit
  /// index when enabled.
  uint64_t SynopsisBytes() const {
    return sets_.capacity() * sizeof(Set) +
           overflow_entries_ * sizeof(PartitionId) + bits_.MemoryBytes();
  }

  static constexpr uint32_t kInline = 4;

 private:

  // Small-buffer set: entries live in `inline_items` until the set grows
  // past kInline, at which point all entries move to `overflow` — sorted,
  // so Items() returns one contiguous ascending span and Contains() can
  // binary-search.
  struct Set {
    std::array<PartitionId, kInline> inline_items;
    uint32_t size = 0;
    std::vector<PartitionId> overflow;

    std::span<const PartitionId> Items() const {
      return size <= kInline
                 ? std::span<const PartitionId>(inline_items.data(), size)
                 : std::span<const PartitionId>(overflow);
    }

    // Caller guarantees `p` is absent.
    void Insert(PartitionId p) {
      if (size < kInline) {
        inline_items[size] = p;
      } else {
        if (size == kInline) {
          overflow.assign(inline_items.begin(), inline_items.end());
          std::sort(overflow.begin(), overflow.end());
        }
        overflow.insert(
            std::upper_bound(overflow.begin(), overflow.end(), p), p);
      }
      ++size;
    }
  };

  std::vector<Set> sets_;
  BitMatrix bits_;
  bool bit_index_enabled_ = false;
  uint64_t total_entries_ = 0;
  uint64_t overflow_entries_ = 0;
};

}  // namespace sgp

#endif  // SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_
