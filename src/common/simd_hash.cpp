#include "common/simd_hash.hpp"

#include "common/bobhash.hpp"
#include "common/simd.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace she::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference loops (also the SHE_FORCE_SCALAR path).
// ---------------------------------------------------------------------------

void bobhash32_keys_scalar(const std::uint64_t* keys, std::size_t n,
                           std::uint32_t seed, std::uint32_t* out) noexcept {
  const BobHash32 h(seed);
  for (std::size_t i = 0; i < n; ++i) out[i] = h(keys[i]);
}

void bobhash32_seeds_scalar(std::uint64_t key, std::uint32_t seed0,
                            std::size_t n, std::uint32_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = BobHash32(seed0 + static_cast<std::uint32_t>(i))(key);
  }
}

void hash64_keys_scalar(const std::uint64_t* keys, std::size_t n,
                        std::uint64_t seed, std::uint64_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = hash64(keys[i], seed);
}

void bobhash32_keys_multi_scalar(const std::uint64_t* keys, std::size_t n,
                                 std::uint32_t seed0, unsigned k,
                                 std::uint32_t* out) noexcept {
  for (std::size_t b = 0; b < n; ++b) {
    for (unsigned h = 0; h < k; ++h)
      out[b * k + h] = BobHash32(seed0 + h)(keys[b]);
  }
}

void positions_groups_scalar(const std::uint32_t* h, std::size_t n,
                             FastDiv32 mod_cells, FastDiv32 div_group,
                             std::uint32_t* pos, std::uint32_t* gid) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = mod_cells.mod(h[i]);
    gid[i] = div_group.div(pos[i]);
  }
}

// ---------------------------------------------------------------------------
// AVX2: 8 x u32 lanes for BobHash32, 4 x u64 lanes for hash64.
// ---------------------------------------------------------------------------
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

#define SHE_AVX2 __attribute__((target("avx2"), always_inline)) inline

// Gather the low 32 bits of eight u64s (v0 = keys 0..3, v1 = keys 4..7)
// into one 8 x u32 vector, preserving key order.  shuffle_ps picks the even
// (resp. odd) dwords per 128-bit lane; the 4x64 permute undoes the lane
// interleave.
SHE_AVX2 __m256i pack_even_dwords(__m256i v0, __m256i v1) {
  __m256 r = _mm256_shuffle_ps(_mm256_castsi256_ps(v0), _mm256_castsi256_ps(v1),
                               _MM_SHUFFLE(2, 0, 2, 0));
  return _mm256_permute4x64_epi64(_mm256_castps_si256(r),
                                  _MM_SHUFFLE(3, 1, 2, 0));
}

SHE_AVX2 __m256i pack_odd_dwords(__m256i v0, __m256i v1) {
  __m256 r = _mm256_shuffle_ps(_mm256_castsi256_ps(v0), _mm256_castsi256_ps(v1),
                               _MM_SHUFFLE(3, 1, 3, 1));
  return _mm256_permute4x64_epi64(_mm256_castps_si256(r),
                                  _MM_SHUFFLE(3, 1, 2, 0));
}

// lookup2 mix(), one lane per key.  Same 27 sub/xor/shift ops as the scalar
// version in bobhash.cpp, so the result is bit-identical per lane.
SHE_AVX2 void mix8(__m256i& a, __m256i& b, __m256i& c) {
  a = _mm256_sub_epi32(a, b); a = _mm256_sub_epi32(a, c);
  a = _mm256_xor_si256(a, _mm256_srli_epi32(c, 13));
  b = _mm256_sub_epi32(b, c); b = _mm256_sub_epi32(b, a);
  b = _mm256_xor_si256(b, _mm256_slli_epi32(a, 8));
  c = _mm256_sub_epi32(c, a); c = _mm256_sub_epi32(c, b);
  c = _mm256_xor_si256(c, _mm256_srli_epi32(b, 13));
  a = _mm256_sub_epi32(a, b); a = _mm256_sub_epi32(a, c);
  a = _mm256_xor_si256(a, _mm256_srli_epi32(c, 12));
  b = _mm256_sub_epi32(b, c); b = _mm256_sub_epi32(b, a);
  b = _mm256_xor_si256(b, _mm256_slli_epi32(a, 16));
  c = _mm256_sub_epi32(c, a); c = _mm256_sub_epi32(c, b);
  c = _mm256_xor_si256(c, _mm256_srli_epi32(b, 5));
  a = _mm256_sub_epi32(a, b); a = _mm256_sub_epi32(a, c);
  a = _mm256_xor_si256(a, _mm256_srli_epi32(c, 3));
  b = _mm256_sub_epi32(b, c); b = _mm256_sub_epi32(b, a);
  b = _mm256_xor_si256(b, _mm256_slli_epi32(a, 10));
  c = _mm256_sub_epi32(c, a); c = _mm256_sub_epi32(c, b);
  c = _mm256_xor_si256(c, _mm256_srli_epi32(b, 15));
}

__attribute__((target("avx2"))) void bobhash32_keys_avx2(
    const std::uint64_t* keys, std::size_t n, std::uint32_t seed,
    std::uint32_t* out) noexcept {
  const __m256i golden = _mm256_set1_epi32(static_cast<int>(0x9e3779b9u));
  const __m256i c_init = _mm256_set1_epi32(static_cast<int>(seed + 8u));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i k0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    const __m256i k1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i + 4));
    __m256i a = _mm256_add_epi32(pack_even_dwords(k0, k1), golden);
    __m256i b = _mm256_add_epi32(pack_odd_dwords(k0, k1), golden);
    __m256i c = c_init;
    mix8(a, b, c);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), c);
  }
  if (i < n) bobhash32_keys_scalar(keys + i, n - i, seed, out + i);
}

__attribute__((target("avx2"))) void bobhash32_seeds_avx2(
    std::uint64_t key, std::uint32_t seed0, std::size_t n,
    std::uint32_t* out) noexcept {
  const __m256i a_init = _mm256_set1_epi32(
      static_cast<int>(0x9e3779b9u + static_cast<std::uint32_t>(key)));
  const __m256i b_init = _mm256_set1_epi32(
      static_cast<int>(0x9e3779b9u + static_cast<std::uint32_t>(key >> 32)));
  const __m256i c_base = _mm256_add_epi32(
      _mm256_set1_epi32(static_cast<int>(seed0 + 8u)),
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a = a_init;
    __m256i b = b_init;
    __m256i c =
        _mm256_add_epi32(c_base, _mm256_set1_epi32(static_cast<int>(i)));
    mix8(a, b, c);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), c);
  }
  if (i < n) {
    bobhash32_seeds_scalar(key, seed0 + static_cast<std::uint32_t>(i), n - i,
                           out + i);
  }
}

__attribute__((target("avx2"))) void bobhash32_keys_multi_avx2(
    const std::uint64_t* keys, std::size_t n, std::uint32_t seed0, unsigned k,
    std::uint32_t* out) noexcept {
  // Key-major: each key's k probe hashes vectorize along the seed axis
  // (same shape as bobhash32_seeds), and land contiguously in `out`.
  for (std::size_t b = 0; b < n; ++b)
    bobhash32_seeds_avx2(keys[b], seed0, k, out + b * k);
}

// 64x64 -> low-64 multiply: AVX2 has no _mm256_mullo_epi64, so build it from
// 32x32 half products ((aL*bH + aH*bL) << 32) + aL*bL.
SHE_AVX2 __m256i mullo64(__m256i a, __m256i b) {
  const __m256i al_bh = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i ah_bl = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i hi = _mm256_slli_epi64(_mm256_add_epi64(al_bh, ah_bl), 32);
  return _mm256_add_epi64(hi, _mm256_mul_epu32(a, b));
}

__attribute__((target("avx2"))) void hash64_keys_avx2(
    const std::uint64_t* keys, std::size_t n, std::uint64_t seed,
    std::uint64_t* out) noexcept {
  constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
  const __m256i pre =
      _mm256_set1_epi64x(static_cast<long long>(seed * kGolden + kGolden));
  const __m256i m1 =
      _mm256_set1_epi64x(static_cast<long long>(0xbf58476d1ce4e5b9ULL));
  const __m256i m2 =
      _mm256_set1_epi64x(static_cast<long long>(0x94d049bb133111ebULL));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i z = _mm256_add_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)), pre);
    z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 30)), m1);
    z = mullo64(_mm256_xor_si256(z, _mm256_srli_epi64(z, 27)), m2);
    z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), z);
  }
  if (i < n) hash64_keys_scalar(keys + i, n - i, seed, out + i);
}

// FastDiv32 arithmetic on 4 x u64 lanes, each holding a u32 value.  Both
// helpers are the exact half-word decompositions from int_math.hpp: every
// intermediate fits 64 bits, so the lanes match the scalar results bit for
// bit.  mul_epu32 reads only the low dword of each lane, which is exactly
// the "& 0xFFFFFFFF" the scalar form spells out.

// mulhi64(magic * n, d): n % d for magic = floor(2^64 / d) + 1.
SHE_AVX2 __m256i fastmod4(__m256i n, __m256i mg_lo, __m256i mg_hi, __m256i d) {
  const __m256i frac =
      _mm256_add_epi64(_mm256_mul_epu32(mg_lo, n),
                       _mm256_slli_epi64(_mm256_mul_epu32(mg_hi, n), 32));
  const __m256i lo_term = _mm256_mul_epu32(frac, d);
  const __m256i hi_term = _mm256_mul_epu32(_mm256_srli_epi64(frac, 32), d);
  return _mm256_srli_epi64(
      _mm256_add_epi64(hi_term, _mm256_srli_epi64(lo_term, 32)), 32);
}

// mulhi64(magic, n): n / d.
SHE_AVX2 __m256i fastdiv4(__m256i n, __m256i mg_lo, __m256i mg_hi) {
  const __m256i lo = _mm256_mul_epu32(mg_lo, n);
  const __m256i hi = _mm256_mul_epu32(mg_hi, n);
  return _mm256_srli_epi64(
      _mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32)), 32);
}

__attribute__((target("avx2"))) void positions_groups_avx2(
    const std::uint32_t* h, std::size_t n, FastDiv32 mod_cells,
    FastDiv32 div_group, std::uint32_t* pos, std::uint32_t* gid) noexcept {
  const __m256i c_lo =
      _mm256_set1_epi64x(static_cast<long long>(mod_cells.magic & 0xFFFFFFFFu));
  const __m256i c_hi =
      _mm256_set1_epi64x(static_cast<long long>(mod_cells.magic >> 32));
  const __m256i c_d = _mm256_set1_epi64x(static_cast<long long>(mod_cells.d));
  const __m256i g_lo = _mm256_set1_epi64x(
      static_cast<long long>(div_group.magic & 0xFFFFFFFFu));
  const __m256i g_hi =
      _mm256_set1_epi64x(static_cast<long long>(div_group.magic >> 32));
  // d == 1 has magic == 0 (the wrap FastDiv32 documents): the vector mod
  // correctly yields 0, but div must return n unchanged — copy pos instead.
  const bool unit_group = div_group.d == 1;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(h + i));
    const __m256i v0 = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
    const __m256i v1 = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
    const __m256i p0 = fastmod4(v0, c_lo, c_hi, c_d);
    const __m256i p1 = fastmod4(v1, c_lo, c_hi, c_d);
    const __m256i packed = pack_even_dwords(p0, p1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + i), packed);
    const __m256i groups =
        unit_group ? packed
                   : pack_even_dwords(fastdiv4(p0, g_lo, g_hi),
                                      fastdiv4(p1, g_lo, g_hi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(gid + i), groups);
  }
  if (i < n) {
    positions_groups_scalar(h + i, n - i, mod_cells, div_group, pos + i,
                            gid + i);
  }
}

#undef SHE_AVX2
#endif  // __x86_64__

// ---------------------------------------------------------------------------
// NEON: 4 x u32 lanes.  vld2q_u32 de-interleaves the u64 keys into lo/hi
// dword vectors for free.
// ---------------------------------------------------------------------------
#if defined(__aarch64__)

inline void mix4(uint32x4_t& a, uint32x4_t& b, uint32x4_t& c) {
  a = vsubq_u32(a, b); a = vsubq_u32(a, c); a = veorq_u32(a, vshrq_n_u32(c, 13));
  b = vsubq_u32(b, c); b = vsubq_u32(b, a); b = veorq_u32(b, vshlq_n_u32(a, 8));
  c = vsubq_u32(c, a); c = vsubq_u32(c, b); c = veorq_u32(c, vshrq_n_u32(b, 13));
  a = vsubq_u32(a, b); a = vsubq_u32(a, c); a = veorq_u32(a, vshrq_n_u32(c, 12));
  b = vsubq_u32(b, c); b = vsubq_u32(b, a); b = veorq_u32(b, vshlq_n_u32(a, 16));
  c = vsubq_u32(c, a); c = vsubq_u32(c, b); c = veorq_u32(c, vshrq_n_u32(b, 5));
  a = vsubq_u32(a, b); a = vsubq_u32(a, c); a = veorq_u32(a, vshrq_n_u32(c, 3));
  b = vsubq_u32(b, c); b = vsubq_u32(b, a); b = veorq_u32(b, vshlq_n_u32(a, 10));
  c = vsubq_u32(c, a); c = vsubq_u32(c, b); c = veorq_u32(c, vshrq_n_u32(b, 15));
}

void bobhash32_keys_neon(const std::uint64_t* keys, std::size_t n,
                         std::uint32_t seed, std::uint32_t* out) noexcept {
  const uint32x4_t golden = vdupq_n_u32(0x9e3779b9u);
  const uint32x4_t c_init = vdupq_n_u32(seed + 8u);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4x2_t k =
        vld2q_u32(reinterpret_cast<const std::uint32_t*>(keys + i));
    uint32x4_t a = vaddq_u32(k.val[0], golden);
    uint32x4_t b = vaddq_u32(k.val[1], golden);
    uint32x4_t c = c_init;
    mix4(a, b, c);
    vst1q_u32(out + i, c);
  }
  if (i < n) bobhash32_keys_scalar(keys + i, n - i, seed, out + i);
}

void bobhash32_seeds_neon(std::uint64_t key, std::uint32_t seed0,
                          std::size_t n, std::uint32_t* out) noexcept {
  const uint32x4_t a_init =
      vdupq_n_u32(0x9e3779b9u + static_cast<std::uint32_t>(key));
  const uint32x4_t b_init =
      vdupq_n_u32(0x9e3779b9u + static_cast<std::uint32_t>(key >> 32));
  const std::uint32_t lanes[4] = {0, 1, 2, 3};
  const uint32x4_t c_base = vaddq_u32(vdupq_n_u32(seed0 + 8u), vld1q_u32(lanes));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    uint32x4_t a = a_init;
    uint32x4_t b = b_init;
    uint32x4_t c =
        vaddq_u32(c_base, vdupq_n_u32(static_cast<std::uint32_t>(i)));
    mix4(a, b, c);
    vst1q_u32(out + i, c);
  }
  if (i < n) {
    bobhash32_seeds_scalar(key, seed0 + static_cast<std::uint32_t>(i), n - i,
                           out + i);
  }
}

#endif  // __aarch64__

}  // namespace

void bobhash32_keys(const std::uint64_t* keys, std::size_t n,
                    std::uint32_t seed, std::uint32_t* out) noexcept {
  switch (active_isa()) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case Isa::kAvx2:
      bobhash32_keys_avx2(keys, n, seed, out);
      return;
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      bobhash32_keys_neon(keys, n, seed, out);
      return;
#endif
    default:
      bobhash32_keys_scalar(keys, n, seed, out);
      return;
  }
}

void bobhash32_seeds(std::uint64_t key, std::uint32_t seed0, std::size_t n,
                     std::uint32_t* out) noexcept {
  switch (active_isa()) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case Isa::kAvx2:
      bobhash32_seeds_avx2(key, seed0, n, out);
      return;
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      bobhash32_seeds_neon(key, seed0, n, out);
      return;
#endif
    default:
      bobhash32_seeds_scalar(key, seed0, n, out);
      return;
  }
}

void bobhash32_keys_multi(const std::uint64_t* keys, std::size_t n,
                          std::uint32_t seed0, unsigned k,
                          std::uint32_t* out) noexcept {
  if (k == 1) {  // one probe per key: vectorize over keys, not seeds
    bobhash32_keys(keys, n, seed0, out);
    return;
  }
  switch (active_isa()) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case Isa::kAvx2:
      bobhash32_keys_multi_avx2(keys, n, seed0, k, out);
      return;
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      for (std::size_t b = 0; b < n; ++b)
        bobhash32_seeds_neon(keys[b], seed0, k, out + b * k);
      return;
#endif
    default:
      bobhash32_keys_multi_scalar(keys, n, seed0, k, out);
      return;
  }
}

void hash64_keys(const std::uint64_t* keys, std::size_t n, std::uint64_t seed,
                 std::uint64_t* out) noexcept {
  switch (active_isa()) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case Isa::kAvx2:
      hash64_keys_avx2(keys, n, seed, out);
      return;
#endif
    default:
      // NEON deliberately falls through: SplitMix64's 64x64 multiplies have
      // no NEON encoding, and the scalar multiplier wins there.
      hash64_keys_scalar(keys, n, seed, out);
      return;
  }
}

void positions_groups(const std::uint32_t* h, std::size_t n,
                      FastDiv32 mod_cells, FastDiv32 div_group,
                      std::uint32_t* pos, std::uint32_t* gid) noexcept {
  switch (active_isa()) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    case Isa::kAvx2:
      positions_groups_avx2(h, n, mod_cells, div_group, pos, gid);
      return;
#endif
    default:
      // NEON falls through: the 32x32 -> 64 products vectorize, but the
      // scalar FastDiv32 is already two multiplies and wins on in-order
      // cores.
      positions_groups_scalar(h, n, mod_cells, div_group, pos, gid);
      return;
  }
}

}  // namespace she::simd
