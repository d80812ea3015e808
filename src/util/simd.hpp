// Host CPU vector-tier detection.
//
// On x86-64 GCC builds, CIMANNEAL_SIMD_X86_DISPATCH is defined and the
// host's AVX2 and popcnt support is probed once at runtime with
// __builtin_cpu_supports, so the build itself needs no -mavx2/-mpopcnt
// and stays runnable on any host. On AArch64, CIMANNEAL_SIMD_NEON is
// defined (NEON is baseline there). Benches and reports record the tier
// so their timings carry the host's ISA.
//
// Raw vector intrinsics are confined to this header by the cimlint rule
// `simd-intrinsics-confined`: a data-parallel kernel that needs one lands
// here, next to the tier detection, with a portable twin.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__)
#define CIMANNEAL_SIMD_X86_DISPATCH 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define CIMANNEAL_SIMD_NEON 1
#endif

namespace cim::util::simd {

namespace detail {

#if defined(CIMANNEAL_SIMD_X86_DISPATCH)

inline bool have_avx2() {
  static const bool cached = __builtin_cpu_supports("avx2") != 0;
  return cached;
}

inline bool have_popcnt() {
  static const bool cached = __builtin_cpu_supports("popcnt") != 0;
  return cached;
}

#endif

}  // namespace detail

/// The widest vector tier this host supports. Purely informational
/// (reports / bench metadata).
inline const char* backend() {
#if defined(CIMANNEAL_SIMD_X86_DISPATCH)
  if (detail::have_avx2()) return "avx2";
  if (detail::have_popcnt()) return "popcnt";
  return "portable";
#elif defined(CIMANNEAL_SIMD_NEON)
  return "neon";
#else
  return "portable";
#endif
}

}  // namespace cim::util::simd
