#ifndef SGP_PARTITION_SCORE_SIMD_INTERNAL_H_
#define SGP_PARTITION_SCORE_SIMD_INTERNAL_H_

#include <cstdint>

#include "partition/score_core.h"

// Internal interface between the kFast kernel dispatch (score_simd.cc)
// and its AVX2 backend (score_simd_avx2.cc).

namespace sgp::score {

// AVX2 backend. On non-x86-64 builds these are stubs with
// Available() == false; the dispatcher never calls a stub kernel.
namespace avx2 {

bool Available();

PartitionId HdrfPick(PartitionId k, const double* effective,
                     const uint64_t* loads, MembershipRow u_row,
                     MembershipRow v_row, double gain_u, double gain_v,
                     double lambda, double max_load, double spread,
                     uint64_t* bitset_hits);

PartitionId LeastLoadedWithRoom(PartitionId k, const uint64_t* loads,
                                const double* weights, const double* capacity);

PartitionId LeastLoadedAll(PartitionId k, const uint64_t* loads,
                           const double* weights);

}  // namespace avx2

}  // namespace sgp::score

#endif  // SGP_PARTITION_SCORE_SIMD_INTERNAL_H_
