#include "tensor/gemm.h"

#include <algorithm>

#include "util/cpu.h"
#include "util/threadpool.h"

#ifdef DEEPSZ_X86_DISPATCH
#include <immintrin.h>
#endif

namespace deepsz::tensor {

#ifdef DEEPSZ_X86_DISPATCH
namespace {

using util::have_avx2_fma;

__attribute__((target("avx2,fma"))) inline float hsum8(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

/// acc + (a * b rounded), never fused. The empty asm hides the product from
/// the compiler's contraction, which fuses some scalar k tails and not
/// others depending on how it vectorizes each call site (and on -O level);
/// a row's sums would then change with the register block it lands in.
__attribute__((target("avx2,fma"))) inline float add_product(float acc,
                                                            float a,
                                                            float b) {
  float p = a * b;
  __asm__("" : "+x"(p));
  return acc + p;
}

__attribute__((target("avx2,fma"))) float dot_avx2(const float* a,
                                                   const float* b,
                                                   std::int64_t k) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + kk), _mm256_loadu_ps(b + kk),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + kk + 8),
                           _mm256_loadu_ps(b + kk + 8), acc1);
  }
  float acc = hsum8(_mm256_add_ps(acc0, acc1));
  for (; kk < k; ++kk) acc = add_product(acc, a[kk], b[kk]);
  return acc;
}

/// The nt micro-kernel body: R A-rows x 2 B-rows per pass, so each streamed
/// B row (a weight row in the Dense forward) is paid once per R batch rows.
/// R=6 uses 12 of the 16 ymm registers for accumulators; the fixed-trip
/// loops below unroll completely.
template <int R>
__attribute__((target("avx2,fma"))) void gemm_nt_avx2_rows(
    std::int64_t n, std::int64_t k, const float* a, const float* b, float* c,
    std::size_t i) {
  const float* arow[R];
  float* crow[R];
  for (int r = 0; r < R; ++r) {
    arow[r] = a + (i + static_cast<std::size_t>(r)) * k;
    crow[r] = c + (i + static_cast<std::size_t>(r)) * n;
  }
  std::int64_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const float* b0 = b + (j + 0) * k;
    const float* b1 = b + (j + 1) * k;
    __m256 acc[R][2];
    for (int r = 0; r < R; ++r) {
      acc[r][0] = _mm256_setzero_ps();
      acc[r][1] = _mm256_setzero_ps();
    }
    std::int64_t kk = 0;
    for (; kk + 8 <= k; kk += 8) {
      const __m256 vb0 = _mm256_loadu_ps(b0 + kk);
      const __m256 vb1 = _mm256_loadu_ps(b1 + kk);
      for (int r = 0; r < R; ++r) {
        const __m256 va = _mm256_loadu_ps(arow[r] + kk);
        acc[r][0] = _mm256_fmadd_ps(va, vb0, acc[r][0]);
        acc[r][1] = _mm256_fmadd_ps(va, vb1, acc[r][1]);
      }
    }
    float p[R][2];
    for (int r = 0; r < R; ++r) {
      p[r][0] = hsum8(acc[r][0]);
      p[r][1] = hsum8(acc[r][1]);
    }
    for (; kk < k; ++kk) {
      for (int r = 0; r < R; ++r) {
        p[r][0] = add_product(p[r][0], arow[r][kk], b0[kk]);
        p[r][1] = add_product(p[r][1], arow[r][kk], b1[kk]);
      }
    }
    for (int r = 0; r < R; ++r) {
      crow[r][j] += p[r][0];
      crow[r][j + 1] += p[r][1];
    }
  }
  for (; j < n; ++j) {
    const float* brow = b + j * k;
    for (int r = 0; r < R; ++r) {
      crow[r][j] += dot_avx2(arow[r], brow, k);
    }
  }
}

/// Rows [lo, hi) of A against all n B rows: greedy 6/4/2/1-row blocks. A
/// row's sums do not depend on the block it lands in (each C element is one
/// accumulator chain in every block size), so neither the pool's chunking
/// nor the batch size changes a row's bits.
__attribute__((target("avx2,fma"))) void gemm_nt_avx2(
    std::int64_t n, std::int64_t k, const float* a, const float* b, float* c,
    std::size_t lo, std::size_t hi) {
  std::size_t i = lo;
  for (; i + 6 <= hi; i += 6) gemm_nt_avx2_rows<6>(n, k, a, b, c, i);
  if (i + 4 <= hi) {
    gemm_nt_avx2_rows<4>(n, k, a, b, c, i);
    i += 4;
  }
  if (i + 2 <= hi) {
    gemm_nt_avx2_rows<2>(n, k, a, b, c, i);
    i += 2;
  }
  if (i < hi) gemm_nt_avx2_rows<1>(n, k, a, b, c, i);
}

/// One tile of C, rows [i, i + R) x columns [j, j + 8 * W), held in R * W
/// ymm accumulators across the whole k loop. A[i][kk] is a[i * rs + kk * ks].
/// Each product is rounded, then added, in kk order: the scalar ikj loop's
/// arithmetic exactly (no `fma` in the target, so nothing can contract).
template <int R, int W>
__attribute__((target("avx2"))) void ikj_tile(std::int64_t n, std::int64_t k,
                                              const float* a, std::int64_t rs,
                                              std::int64_t ks, const float* b,
                                              float* c, std::int64_t i,
                                              std::int64_t j) {
  __m256 acc[R][W];
  for (int r = 0; r < R; ++r) {
    for (int w = 0; w < W; ++w) {
      acc[r][w] = _mm256_loadu_ps(c + (i + r) * n + j + 8 * w);
    }
  }
  const float* ai = a + i * rs;
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* bk = b + kk * n + j;
    __m256 vb[W];
    for (int w = 0; w < W; ++w) vb[w] = _mm256_loadu_ps(bk + 8 * w);
    const float* ak = ai + kk * ks;
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_broadcast_ss(ak + r * rs);
      for (int w = 0; w < W; ++w) {
        acc[r][w] = _mm256_add_ps(acc[r][w], _mm256_mul_ps(va, vb[w]));
      }
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int w = 0; w < W; ++w) {
      _mm256_storeu_ps(c + (i + r) * n + j + 8 * w, acc[r][w]);
    }
  }
}

/// Rows [i, i + R) of C: 16-wide tiles, one 8-wide tile, then the scalar
/// loop for the last n % 8 columns.
template <int R>
__attribute__((target("avx2"))) void ikj_rows_avx2(
    std::int64_t n, std::int64_t k, const float* a, std::int64_t rs,
    std::int64_t ks, const float* b, float* c, std::int64_t i) {
  std::int64_t j = 0;
  for (; j + 16 <= n; j += 16) ikj_tile<R, 2>(n, k, a, rs, ks, b, c, i, j);
  if (j + 8 <= n) {
    ikj_tile<R, 1>(n, k, a, rs, ks, b, c, i, j);
    j += 8;
  }
  for (; j < n; ++j) {
    for (int r = 0; r < R; ++r) {
      float* cij = c + (i + r) * n + j;
      float acc = *cij;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += a[(i + r) * rs + kk * ks] * b[kk * n + j];
      }
      *cij = acc;
    }
  }
}

/// Rows [lo, hi) in blocks of up to 6 (12 of the 16 ymm registers
/// accumulate).
void ikj_avx2(std::int64_t n, std::int64_t k, const float* a, std::int64_t rs,
              std::int64_t ks, const float* b, float* c, std::int64_t lo,
              std::int64_t hi) {
  static constexpr decltype(&ikj_rows_avx2<1>) kRows[] = {
      nullptr,          ikj_rows_avx2<1>, ikj_rows_avx2<2>, ikj_rows_avx2<3>,
      ikj_rows_avx2<4>, ikj_rows_avx2<5>, ikj_rows_avx2<6>};
  for (std::int64_t i = lo; i < hi; i += 6) {
    kRows[std::min<std::int64_t>(6, hi - i)](n, k, a, rs, ks, b, c, i);
  }
}

}  // namespace
#endif  // DEEPSZ_X86_DISPATCH

namespace {

/// C[MxN] += A * B[KxN] with A[i][kk] at a[i * rs + kk * ks]; gemm and
/// gemm_tn differ only in the strides. Rows are parallelized; every C element
/// sums its products in kk order on every path, so the partition never
/// changes its bits.
void gemm_ikj(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              std::int64_t rs, std::int64_t ks, const float* b, float* c) {
  auto row_block = [&](std::size_t lo, std::size_t hi) {
#ifdef DEEPSZ_X86_DISPATCH
    if (have_avx2_fma()) {
      ikj_avx2(n, k, a, rs, ks, b, c, static_cast<std::int64_t>(lo),
               static_cast<std::int64_t>(hi));
      return;
    }
#endif
    // ikj order: C row accumulates A[i][kk] * B row kk; the innermost loop
    // is contiguous over both B and C, which GCC vectorizes.
    for (std::size_t i = lo; i < hi; ++i) {
      float* crow = c + i * n;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[static_cast<std::int64_t>(i) * rs + kk * ks];
        if (av == 0.0f) continue;  // pruned-weight rows benefit
        const float* brow = b + kk * n;
        for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  };
  util::parallel_for_chunks(0, static_cast<std::size_t>(m), row_block, 8);
}

}  // namespace

void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          const float* b, float* c) {
  gemm_ikj(m, n, k, a, k, 1, b, c);
}

void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c) {
  // Register-blocked micro-kernel: 4 A-rows x 2 B-rows per pass. Each B row
  // (a weight row in the Dense forward) is streamed once per FOUR batch rows
  // instead of once per row, and each A value feeds two dot products — the
  // inner loop runs 8 independent accumulator chains, which is what lets
  // batched inference (serve/scheduler micro-batches) cost less per row than
  // batch-1. On AVX2+FMA hosts the same blocking runs through an intrinsics
  // kernel (runtime-dispatched; the scalar path below is the baseline).
  auto row_block = [&](std::size_t lo, std::size_t hi) {
#ifdef DEEPSZ_X86_DISPATCH
    if (have_avx2_fma()) {
      gemm_nt_avx2(n, k, a, b, c, lo, hi);
      return;
    }
#endif
    std::size_t i = lo;
    for (; i + 4 <= hi; i += 4) {
      const float* a0 = a + (i + 0) * k;
      const float* a1 = a + (i + 1) * k;
      const float* a2 = a + (i + 2) * k;
      const float* a3 = a + (i + 3) * k;
      float* c0 = c + (i + 0) * n;
      float* c1 = c + (i + 1) * n;
      float* c2 = c + (i + 2) * n;
      float* c3 = c + (i + 3) * n;
      std::int64_t j = 0;
      for (; j + 2 <= n; j += 2) {
        const float* bj0 = b + (j + 0) * k;
        const float* bj1 = b + (j + 1) * k;
        float s00 = 0.0f, s01 = 0.0f, s10 = 0.0f, s11 = 0.0f;
        float s20 = 0.0f, s21 = 0.0f, s30 = 0.0f, s31 = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float b0 = bj0[kk], b1 = bj1[kk];
          const float v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
          s00 += v0 * b0;
          s01 += v0 * b1;
          s10 += v1 * b0;
          s11 += v1 * b1;
          s20 += v2 * b0;
          s21 += v2 * b1;
          s30 += v3 * b0;
          s31 += v3 * b1;
        }
        c0[j] += s00;
        c0[j + 1] += s01;
        c1[j] += s10;
        c1[j + 1] += s11;
        c2[j] += s20;
        c2[j + 1] += s21;
        c3[j] += s30;
        c3[j + 1] += s31;
      }
      for (; j < n; ++j) {
        const float* brow = b + j * k;
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float bv = brow[kk];
          s0 += a0[kk] * bv;
          s1 += a1[kk] * bv;
          s2 += a2[kk] * bv;
          s3 += a3[kk] * bv;
        }
        c0[j] += s0;
        c1[j] += s1;
        c2[j] += s2;
        c3[j] += s3;
      }
    }
    for (; i < hi; ++i) {
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (std::int64_t j = 0; j < n; ++j) {
        const float* brow = b + j * k;
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          acc += arow[kk] * brow[kk];
        }
        crow[j] += acc;
      }
    }
  };
  util::parallel_for_chunks(0, static_cast<std::size_t>(m), row_block, 8);
}

void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c) {
  // A is KxM: A[i][kk] sits at a[kk * m + i].
  gemm_ikj(m, n, k, a, 1, m, b, c);
}

void im2col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t pad, float* columns) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  const std::int64_t n_cols = out_h * out_w;
  std::int64_t row = 0;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    for (std::int64_t ky = 0; ky < kernel; ++ky) {
      for (std::int64_t kx = 0; kx < kernel; ++kx, ++row) {
        float* dst = columns + row * n_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) {
            std::fill(dst + oy * out_w, dst + (oy + 1) * out_w, 0.0f);
            continue;
          }
          const float* src = input + (ch * height + iy) * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            dst[oy * out_w + ox] =
                (ix >= 0 && ix < width) ? src[ix] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t pad, float* input_grad) {
  const std::int64_t out_h = (height + 2 * pad - kernel) / stride + 1;
  const std::int64_t out_w = (width + 2 * pad - kernel) / stride + 1;
  const std::int64_t n_cols = out_h * out_w;
  std::int64_t row = 0;
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    for (std::int64_t ky = 0; ky < kernel; ++ky) {
      for (std::int64_t kx = 0; kx < kernel; ++kx, ++row) {
        const float* src = columns + row * n_cols;
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) continue;
          float* dst = input_grad + (ch * height + iy) * width;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            if (ix >= 0 && ix < width) {
              dst[ix] += src[oy * out_w + ox];
            }
          }
        }
      }
    }
  }
}

}  // namespace deepsz::tensor
