#ifndef SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_
#define SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
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
///
/// An optional tally (EnableTally) turns Add into "one more incident edge
/// of u on p": each entry then also counts the placed edges it stands for
/// (CountsOf), the input of the streamed master rule (DESIGN.md §12).
class ReplicaState {
 public:
  ReplicaState() = default;
  explicit ReplicaState(VertexId num_vertices) : sets_(num_vertices) {}

  /// Grows the vertex space to cover `u` (sources that discover ids).
  void EnsureVertex(VertexId u) {
    if (u < sets_.size()) return;
    sets_.resize(static_cast<size_t>(u) + 1);
    if (bit_index_enabled_) bits_.EnsureRows(sets_.size());
    if (tally_enabled_) inline_counts_.resize(sets_.size());
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
  // Incident-edge tally.
  // ---------------------------------------------------------------------

  /// Makes every later Add(u, p) count one incident edge of u placed on
  /// p. Only on an empty table, whose counts are all known to be zero.
  /// Per-vertex count storage exists only from here on, so a table that
  /// never tallies keeps its size.
  void EnableTally() {
    SGP_CHECK(total_entries_ == 0);
    tally_enabled_ = true;
    inline_counts_.resize(sets_.size());
  }

  bool tally_enabled() const { return tally_enabled_; }

  /// Pulls the lines an Add(u, ·) and a RowWords(u) read towards the
  /// cache, for placement loops that know their next edges.
  void Prefetch(VertexId u) const {
    __builtin_prefetch(&sets_[u], 1, 1);
    if (tally_enabled_) __builtin_prefetch(&inline_counts_[u], 1, 1);
    if (bit_index_enabled_) __builtin_prefetch(bits_.Row(u), 0, 1);
  }

  /// Incident-edge counts of `u`, parallel to Of(u). Valid only while the
  /// tally is enabled.
  std::span<const uint32_t> CountsOf(VertexId u) const {
    const Set& s = sets_[u];
    return s.size <= kInline
               ? std::span<const uint32_t>(inline_counts_[u].data(), s.size)
               : std::span<const uint32_t>(s.overflow.data() + s.size,
                                           s.size);
  }

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
    const auto begin = s.overflow.begin();
    return std::binary_search(begin, begin + s.size, p);
  }

  /// Records that partition `p` now holds a replica of `u` (idempotent
  /// unless the tally is on). With the bit index on, the membership test
  /// is one bit of the row the scorers just read; the set itself is
  /// touched only for a new replica.
  void Add(VertexId u, PartitionId p) {
    if (tally_enabled_) {
      Tally(u, p);
      return;
    }
    if (bit_index_enabled_ ? bits_.Test(u, p) : Contains(u, p)) return;
    sets_[u].Insert(p);
    NoteInserted(u, p);
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
  /// small-buffer sets, every heap-resident overflow entry (with its count
  /// when tallying), the inline counts, and the bit index when enabled.
  uint64_t SynopsisBytes() const {
    const uint64_t heap_words = tally_enabled_ ? 2 : 1;
    return sets_.capacity() * sizeof(Set) +
           overflow_entries_ * heap_words * sizeof(PartitionId) +
           inline_counts_.capacity() * sizeof(inline_counts_[0]) +
           bits_.MemoryBytes();
  }

  static constexpr uint32_t kInline = 4;

 private:
  // Small-buffer set: entries live in `inline_items` until the set grows
  // past kInline, at which point all entries move to `overflow` — sorted,
  // so Items() returns one contiguous ascending span and Contains() can
  // binary-search. A tallying table keeps a spilled set's counts in the
  // same heap block, behind its `size` partitions; an inline set's counts
  // live in the table's parallel `inline_counts_`.
  struct Set {
    std::array<PartitionId, kInline> inline_items;
    uint32_t size = 0;
    std::vector<PartitionId> overflow;

    std::span<const PartitionId> Items() const {
      return size <= kInline
                 ? std::span<const PartitionId>(inline_items.data(), size)
                 : std::span<const PartitionId>(overflow.data(), size);
    }

    // Non-tallying insert; caller guarantees `p` is absent.
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

  // Tallying Add: raises the count of (u, p), or inserts it with count 1.
  // An inline row is scanned; a spilled row is sorted, so the entry's
  // position is the number of partitions below p — a popcount of the bit
  // row with the index on, a binary search without.
  void Tally(VertexId u, PartitionId p) {
    Set& s = sets_[u];
    if (s.size <= kInline) {
      uint32_t* counts = inline_counts_[u].data();
      for (uint32_t i = 0; i < s.size; ++i) {
        if (s.inline_items[i] == p) {
          ++counts[i];
          return;
        }
      }
      if (s.size < kInline) {
        s.inline_items[s.size] = p;
        counts[s.size] = 1;
        ++s.size;
        NoteInserted(u, p);
        return;
      }
      SpillTallied(s, counts);
    }
    const auto parts = s.overflow.begin();
    uint32_t pos;
    bool present;
    if (bit_index_enabled_) {
      pos = RankBelow(bits_.Row(u), p);
      present = bits_.Test(u, p);
    } else {
      pos = static_cast<uint32_t>(
          std::lower_bound(parts, parts + s.size, p) - parts);
      present = pos < s.size && parts[pos] == p;
    }
    if (present) {
      ++s.overflow[s.size + pos];
      return;
    }
    // Count first, so the partition insert cannot shift its slot.
    s.overflow.insert(parts + s.size + pos, 1);
    s.overflow.insert(s.overflow.begin() + pos, p);
    ++s.size;
    NoteInserted(u, p);
  }

  // Moves a full inline set and its counts to the heap block, sorted by
  // partition: [partitions | counts]. `size` stays kInline.
  static void SpillTallied(Set& s, const uint32_t* counts) {
    std::array<uint32_t, kInline> order{};
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return s.inline_items[a] < s.inline_items[b];
    });
    s.overflow.resize(2 * kInline);
    for (uint32_t i = 0; i < kInline; ++i) {
      s.overflow[i] = s.inline_items[order[i]];
      s.overflow[kInline + i] = counts[order[i]];
    }
  }

  // Number of set bits of `row` below column `p`.
  static uint32_t RankBelow(const uint64_t* row, PartitionId p) {
    uint32_t rank = 0;
    for (PartitionId w = 0; w < (p >> 6); ++w) rank += std::popcount(row[w]);
    const uint64_t below = (uint64_t{1} << (p & 63)) - 1;
    return rank + static_cast<uint32_t>(std::popcount(row[p >> 6] & below));
  }

  // Bookkeeping of a new entry (u, p), already in the set.
  void NoteInserted(VertexId u, PartitionId p) {
    ++total_entries_;
    const uint32_t size = sets_[u].size;
    if (size > kInline) {
      // Spilling moves all kInline+1 entries to the heap at once; later
      // additions grow the heap set by one.
      overflow_entries_ += size == kInline + 1 ? kInline + 1 : 1;
    }
    if (bit_index_enabled_) bits_.Set(u, p);
  }

  std::vector<Set> sets_;
  BitMatrix bits_;
  bool bit_index_enabled_ = false;
  bool tally_enabled_ = false;
  std::vector<std::array<uint32_t, kInline>> inline_counts_;  // tally only
  uint64_t total_entries_ = 0;
  uint64_t overflow_entries_ = 0;
};

}  // namespace sgp

#endif  // SGP_PARTITION_VERTEXCUT_REPLICA_STATE_H_
