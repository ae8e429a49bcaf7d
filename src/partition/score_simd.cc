#include <cstdlib>

#include "partition/score_simd_internal.h"

// ScoreMode::kFast kernel dispatch: picks the AVX2 kernels
// (score_simd_avx2.cc) when the CPU has them and the
// SGP_FORCE_SCALAR_DISPATCH override is unset, and the batched kernels of
// score_core.h otherwise. Both tiers select identically.

namespace sgp::score {

namespace {

bool UseAvx2(KernelTier tier) {
  // A forced kAvx2 degrades to batched when the CPU lacks it, so the
  // forced-dispatch tests can enumerate tiers unconditionally.
  return tier == KernelTier::kAvx2 && avx2::Available();
}

}  // namespace

std::string_view KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kBatched:
      return "batched";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool KernelTierAvailable(KernelTier tier) {
  return tier == KernelTier::kBatched || avx2::Available();
}

KernelTier ActiveKernelTier() {
  const char* force = std::getenv("SGP_FORCE_SCALAR_DISPATCH");
  if (force != nullptr && force[0] != '\0' &&
      !(force[0] == '0' && force[1] == '\0')) {
    return KernelTier::kBatched;
  }
  return avx2::Available() ? KernelTier::kAvx2 : KernelTier::kBatched;
}

PartitionId HdrfPickFast(KernelTier tier, PartitionId k,
                         const double* effective, const uint64_t* loads,
                         MembershipRow u_row, MembershipRow v_row,
                         double theta_u, double theta_v, double lambda,
                         double max_load, double spread,
                         uint64_t* bitset_hits) {
  if (UseAvx2(tier)) {
    const double gain_u = 1.0 + theta_v;  // g of replicating endpoint u
    const double gain_v = 1.0 + theta_u;
    return avx2::HdrfPick(k, effective, loads, u_row, v_row, gain_u, gain_v,
                          lambda, max_load, spread, bitset_hits);
  }
  return HdrfPickBatched(k, effective, loads, u_row, v_row, theta_u, theta_v,
                         lambda, max_load, spread, bitset_hits);
}

PartitionId LeastLoadedWithRoomFast(KernelTier tier, PartitionId k,
                                    const uint64_t* loads,
                                    const double* weights,
                                    const double* capacity) {
  if (UseAvx2(tier)) {
    return avx2::LeastLoadedWithRoom(k, loads, weights, capacity);
  }
  return LeastLoadedWithRoom(k, loads, weights, capacity);
}

PartitionId LeastLoadedAllFast(KernelTier tier, PartitionId k,
                               const uint64_t* loads, const double* weights) {
  if (UseAvx2(tier)) {
    return avx2::LeastLoadedAll(k, loads, weights);
  }
  return LeastLoadedAll(k, loads, weights);
}

}  // namespace sgp::score
