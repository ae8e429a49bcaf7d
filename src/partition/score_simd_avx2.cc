#include "partition/score_simd_internal.h"

// AVX2 tier of the kFast kernels. Compiled with -mavx2 only (no
// -mfma, so a*b+c cannot contract into FMA) plus -ffp-contract=off; every
// arithmetic op below maps 1:1 onto an IEEE-exact instruction in the
// exact order of the scalar reference, which is what makes the selections
// bit-identical:
//   - membership bit → {0.0, 1.0} multiply becomes an AND against a
//     cmpeq-derived all-ones mask (x & ~0 == x, x & 0 == +0.0 == 0.0·x
//     for the strictly positive gains),
//   - u64 loads become doubles via the 2^52 magic-number trick, exact for
//     values < 2^52 (partition loads are element counts),
//   - vdivpd is correctly rounded per element.
// The argmax runs lane-wise with the incumbent-keeping rule (indices
// ascend within a lane, so full ties keep the lower id), then the four
// lane winners and the scalar tail merge through the full lexicographic
// rule (score desc, load asc, index asc) — a plain lane-order reduction
// would mis-rank equal (score, load) pairs whose indices interleave
// across lanes.

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>

namespace sgp::score::avx2 {

namespace {

// Every helper of this unit lives in this anonymous namespace on purpose:
// the unit is compiled with -mavx2, and any COMDAT-inline function it
// emitted could be picked by the linker for every other caller, leaking
// VEX-encoded code into builds that must run on pre-AVX hardware.
// Internal linkage keeps this unit's copies local. For the same reason
// the kernels re-derive the few scalar expressions they need (tail
// elements, membership words) instead of calling the COMDAT-inline
// helpers of score_core.h; the expressions are kept textually identical —
// see the pairing comments.

// Running lexicographic argmax over (score desc, load asc, index asc) —
// the canonical tie-break. Used for the cross-lane/tail merges, where the
// within-lane "keep the incumbent on full ties" shortcut is wrong because
// lane winners' indices interleave.
struct LexBestU64 {
  double score = kNegInf;
  uint64_t load = 0;
  PartitionId index = kInvalidPartition;
};

inline void MergeU64(LexBestU64* b, double score, uint64_t load,
                     PartitionId index) {
  if (score > b->score ||
      (score == b->score &&
       (load < b->load || (load == b->load && index < b->index)))) {
    b->score = score;
    b->load = load;
    b->index = index;
  }
}

// Running lexicographic argmin over (effective load asc, index asc) for
// the least-loaded scans.
struct LexMin {
  double eff = std::numeric_limits<double>::infinity();
  PartitionId index = kInvalidPartition;
};

inline void MergeMin(LexMin* b, double eff, PartitionId index) {
  if (eff < b->eff || (eff == b->eff && index < b->index)) {
    b->eff = eff;
    b->index = index;
  }
}

// Combined membership word without going through the COMDAT-inline
// MembershipRow::Word (see above). Must stay textually identical.
inline uint64_t RowWord(const MembershipRow& row, uint64_t w) {
  return row.delta == nullptr ? row.base[w] : row.base[w] | row.delta[w];
}

// u64 → double, exact for values < 2^52: OR the value into the mantissa
// of 2^52 and subtract 2^52.
inline __m256d U64ToDouble(__m256i v) {
  const __m256i magic_i = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d magic_d = _mm256_set1_pd(4503599627370496.0);  // 2^52
  return _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(v, magic_i)), magic_d);
}

inline __m256d BlendPd(__m256d keep, __m256d take, __m256d mask) {
  return _mm256_blendv_pd(keep, take, mask);
}

inline __m256i BlendI64(__m256i keep, __m256i take, __m256d mask) {
  return _mm256_castpd_si256(_mm256_blendv_pd(
      _mm256_castsi256_pd(keep), _mm256_castsi256_pd(take), mask));
}

}  // namespace

bool Available() { return __builtin_cpu_supports("avx2"); }

PartitionId HdrfPick(PartitionId k, const double* effective,
                     const uint64_t* loads, MembershipRow u_row,
                     MembershipRow v_row, double gain_u, double gain_v,
                     double lambda, double max_load, double spread,
                     uint64_t* bitset_hits) {
  // Bitset-hit audit, identical to the HdrfPickBatched popcount loop so
  // the counter stays ISA-independent.
  uint64_t hits = 0;
  for (PartitionId blk = 0; blk < k; blk += 64) {
    const uint64_t wu = RowWord(u_row, blk >> 6);
    const uint64_t wv = RowWord(v_row, blk >> 6);
    const PartitionId lim = k < blk + 64 ? k : blk + 64;
    const uint64_t mask = lim - blk == 64
                              ? ~uint64_t{0}
                              : (uint64_t{1} << (lim - blk)) - 1;
    hits += static_cast<uint64_t>(__builtin_popcountll(wu & mask)) +
            static_cast<uint64_t>(__builtin_popcountll(wv & mask));
  }
  *bitset_hits += hits;

  const __m256d v_gain_u = _mm256_set1_pd(gain_u);
  const __m256d v_gain_v = _mm256_set1_pd(gain_v);
  const __m256d v_lambda = _mm256_set1_pd(lambda);
  const __m256d v_max = _mm256_set1_pd(max_load);
  const __m256d v_spread = _mm256_set1_pd(spread);
  const __m256i v_one = _mm256_set1_epi64x(1);
  const __m256i v_four = _mm256_set1_epi64x(4);
  const __m256i lane_off = _mm256_setr_epi64x(0, 1, 2, 3);

  __m256d best_sc = _mm256_set1_pd(kNegInf);
  __m256i best_ld = _mm256_setzero_si256();
  __m256i best_ix = _mm256_setzero_si256();
  __m256i cur_ix = lane_off;

  const PartitionId vec_end = k & ~PartitionId{3};
  PartitionId i = 0;
  for (; i < vec_end; i += 4) {
    // The group is 4-aligned, so all four candidates read the same
    // 64-bit membership word.
    const uint64_t wu = RowWord(u_row, i >> 6);
    const uint64_t wv = RowWord(v_row, i >> 6);
    const __m256i shift = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(i & 63)), lane_off);
    const __m256i bits_u = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(wu)),
                          shift),
        v_one);
    const __m256i bits_v = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(wv)),
                          shift),
        v_one);
    const __m256d mu = _mm256_castsi256_pd(_mm256_cmpeq_epi64(bits_u, v_one));
    const __m256d mv = _mm256_castsi256_pd(_mm256_cmpeq_epi64(bits_v, v_one));
    // bu·gain_u + bv·gain_v with bu, bv ∈ {0.0, 1.0} — the AND against the
    // all-ones/all-zero masks reproduces the multiply bit-for-bit.
    const __m256d g = _mm256_add_pd(_mm256_and_pd(mu, v_gain_u),
                                    _mm256_and_pd(mv, v_gain_v));
    const __m256d eff = _mm256_loadu_pd(effective + i);
    // g + λ(max − eff)/spread in the scalar association order.
    const __m256d sc = _mm256_add_pd(
        g, _mm256_div_pd(_mm256_mul_pd(v_lambda, _mm256_sub_pd(v_max, eff)),
                         v_spread));
    const __m256i ld = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(loads + i));
    const __m256d gt = _mm256_cmp_pd(sc, best_sc, _CMP_GT_OQ);
    const __m256d eq = _mm256_cmp_pd(sc, best_sc, _CMP_EQ_OQ);
    // Loads are element counts < 2^63, so the signed compare is safe.
    const __m256d lighter =
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(best_ld, ld));
    const __m256d take = _mm256_or_pd(gt, _mm256_and_pd(eq, lighter));
    best_sc = BlendPd(best_sc, sc, take);
    best_ld = BlendI64(best_ld, ld, take);
    best_ix = BlendI64(best_ix, cur_ix, take);
    cur_ix = _mm256_add_epi64(cur_ix, v_four);
  }

  LexBestU64 best;
  if (vec_end > 0) {
    alignas(32) double lane_sc[4];
    alignas(32) uint64_t lane_ld[4];
    alignas(32) uint64_t lane_ix[4];
    _mm256_store_pd(lane_sc, best_sc);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ld), best_ld);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ix), best_ix);
    for (int l = 0; l < 4; ++l) {
      MergeU64(&best, lane_sc[l], lane_ld[l],
               static_cast<PartitionId>(lane_ix[l]));
    }
  }
  for (; i < k; ++i) {
    const uint64_t wu = RowWord(u_row, i >> 6);
    const uint64_t wv = RowWord(v_row, i >> 6);
    const double bu = static_cast<double>((wu >> (i & 63)) & 1u);
    const double bv = static_cast<double>((wv >> (i & 63)) & 1u);
    const double g = bu * gain_u + bv * gain_v;
    const double sc = g + lambda * (max_load - effective[i]) / spread;
    MergeU64(&best, sc, loads[i], i);
  }
  return best.index;
}

namespace {

// Shared least-loaded scan: effective loads with capacity-violating (or
// no) entries masked to +inf, lex-min (effective, index).
inline LexMin LeastLoadedScan(PartitionId k, const uint64_t* loads,
                              const double* weights, const double* capacity) {
  const __m256d v_inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d v_one = _mm256_set1_pd(1.0);
  const __m256i v_four = _mm256_set1_epi64x(4);
  const __m256i lane_off = _mm256_setr_epi64x(0, 1, 2, 3);

  __m256d best_eff = v_inf;
  __m256i best_ix = _mm256_setzero_si256();
  __m256i cur_ix = lane_off;

  const PartitionId vec_end = k & ~PartitionId{3};
  PartitionId i = 0;
  for (; i < vec_end; i += 4) {
    const __m256i ld = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(loads + i));
    const __m256d size = U64ToDouble(ld);
    const __m256d wgt = _mm256_loadu_pd(weights + i);
    __m256d eff = _mm256_div_pd(size, wgt);
    if (capacity != nullptr) {
      const __m256d cap = _mm256_loadu_pd(capacity + i);
      const __m256d over =
          _mm256_cmp_pd(_mm256_add_pd(size, v_one), cap, _CMP_GT_OQ);
      eff = BlendPd(eff, v_inf, over);
    }
    const __m256d take = _mm256_cmp_pd(eff, best_eff, _CMP_LT_OQ);
    best_eff = BlendPd(best_eff, eff, take);
    best_ix = BlendI64(best_ix, cur_ix, take);
    cur_ix = _mm256_add_epi64(cur_ix, v_four);
  }

  LexMin best;
  if (vec_end > 0) {
    alignas(32) double lane_eff[4];
    alignas(32) uint64_t lane_ix[4];
    _mm256_store_pd(lane_eff, best_eff);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_ix), best_ix);
    for (int l = 0; l < 4; ++l) {
      MergeMin(&best, lane_eff[l], static_cast<PartitionId>(lane_ix[l]));
    }
  }
  for (; i < k; ++i) {
    const double size = static_cast<double>(loads[i]);
    const bool over = capacity != nullptr && size + 1.0 > capacity[i];
    MergeMin(&best,
             over ? std::numeric_limits<double>::infinity()
                  : size / weights[i],
             i);
  }
  return best;
}

}  // namespace

PartitionId LeastLoadedWithRoom(PartitionId k, const uint64_t* loads,
                                const double* weights,
                                const double* capacity) {
  const LexMin best = LeastLoadedScan(k, loads, weights, capacity);
  return best.eff == std::numeric_limits<double>::infinity() ? 0 : best.index;
}

PartitionId LeastLoadedAll(PartitionId k, const uint64_t* loads,
                           const double* weights) {
  return LeastLoadedScan(k, loads, weights, nullptr).index;
}

}  // namespace sgp::score::avx2

#else  // !(defined(__x86_64__) && defined(__AVX2__))

// Non-x86-64 (or a toolchain without AVX2 support): the dispatcher sees
// Available() == false and routes every pick to the batched tier; the
// kernel stubs are unreachable.

namespace sgp::score::avx2 {

bool Available() { return false; }

PartitionId HdrfPick(PartitionId, const double*, const uint64_t*,
                     MembershipRow, MembershipRow, double, double, double,
                     double, double, uint64_t*) {
  SGP_CHECK(false);
  return kInvalidPartition;
}

PartitionId LeastLoadedWithRoom(PartitionId, const uint64_t*, const double*,
                                const double*) {
  SGP_CHECK(false);
  return kInvalidPartition;
}

PartitionId LeastLoadedAll(PartitionId, const uint64_t*, const double*) {
  SGP_CHECK(false);
  return kInvalidPartition;
}

}  // namespace sgp::score::avx2

#endif  // defined(__x86_64__) && defined(__AVX2__)
