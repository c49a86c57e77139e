#include "tensor/gemm.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/rng.h"

namespace deepsz::tensor {
namespace {

void gemm_ref(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
              const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = c[i * n + j];
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

std::vector<float> random_matrix(std::int64_t n, util::Pcg32& rng) {
  std::vector<float> m(n);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1, 1));
  return m;
}

TEST(Gemm, MatchesReference) {
  util::Pcg32 rng(1);
  for (auto [m, n, k] : std::vector<std::tuple<int, int, int>>{
           {1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {33, 17, 65}, {128, 64, 96}}) {
    auto a = random_matrix(m * k, rng);
    auto b = random_matrix(k * n, rng);
    std::vector<float> c(m * n, 0.0f), c_ref(m * n, 0.0f);
    gemm(m, n, k, a.data(), b.data(), c.data());
    gemm_ref(m, n, k, a.data(), b.data(), c_ref.data());
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], 1e-3) << m << "x" << n << "x" << k;
    }
  }
}

TEST(Gemm, AccumulatesIntoC) {
  std::vector<float> a = {1, 0, 0, 1};  // identity 2x2
  std::vector<float> b = {5, 6, 7, 8};
  std::vector<float> c = {1, 1, 1, 1};
  gemm(2, 2, 2, a.data(), b.data(), c.data());
  EXPECT_FLOAT_EQ(c[0], 6.0f);
  EXPECT_FLOAT_EQ(c[3], 9.0f);
}

TEST(GemmNt, MatchesNormalGemmWithTransposedB) {
  util::Pcg32 rng(2);
  const int m = 13, n = 9, k = 21;
  auto a = random_matrix(m * k, rng);
  auto bt = random_matrix(n * k, rng);  // B^T stored as NxK
  // Build B (KxN) from bt.
  std::vector<float> b(k * n);
  for (int kk = 0; kk < k; ++kk) {
    for (int j = 0; j < n; ++j) b[kk * n + j] = bt[j * k + kk];
  }
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
  gemm(m, n, k, a.data(), b.data(), c1.data());
  gemm_nt(m, n, k, a.data(), bt.data(), c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    ASSERT_NEAR(c1[i], c2[i], 1e-4);
  }
}

TEST(GemmTn, MatchesNormalGemmWithTransposedA) {
  util::Pcg32 rng(3);
  const int m = 11, n = 15, k = 19;
  auto at = random_matrix(k * m, rng);  // A^T stored as KxM
  auto b = random_matrix(k * n, rng);
  std::vector<float> a(m * k);
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) a[i * k + kk] = at[kk * m + i];
  }
  std::vector<float> c1(m * n, 0.0f), c2(m * n, 0.0f);
  gemm(m, n, k, a.data(), b.data(), c1.data());
  gemm_tn(m, n, k, at.data(), b.data(), c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i) {
    ASSERT_NEAR(c1[i], c2[i], 1e-4);
  }
}

/// The scalar float ikj loop both ikj GEMMs must reproduce bit for bit:
/// A[i][kk] at a[i * rs + kk * ks], products rounded then added in kk order,
/// zero A entries skipped.
void ikj_ref(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             std::int64_t rs, std::int64_t ks, const float* b, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = a[i * rs + kk * ks];
      if (av == 0.0f) continue;
      for (std::int64_t j = 0; j < n; ++j) c[i * n + j] += av * b[kk * n + j];
    }
  }
}

/// Runs `kernel` (gemm or gemm_tn, A stored with strides rs/ks) over the
/// shape grid and memcmp-checks it against ikj_ref. A has zeros (a pruned
/// layer's pattern) and C starts nonzero, so accumulation order shows.
template <typename Kernel>
void expect_bit_exact_ikj(Kernel kernel, bool transposed_a) {
  util::Pcg32 rng(11);
  for (std::int64_t m : {1, 2, 5, 6, 7, 13}) {
    for (std::int64_t n : {1, 7, 8, 15, 16, 17, 64, 576}) {
      for (std::int64_t k : {0, 1, 25, 500}) {
        auto a = random_matrix(m * k, rng);
        for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0f;
        auto b = random_matrix(k * n, rng);
        auto c = random_matrix(m * n, rng);
        auto c_ref = c;
        kernel(m, n, k, a.data(), b.data(), c.data());
        if (transposed_a) {
          ikj_ref(m, n, k, a.data(), 1, m, b.data(), c_ref.data());
        } else {
          ikj_ref(m, n, k, a.data(), k, 1, b.data(), c_ref.data());
        }
        ASSERT_EQ(std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(float)),
                  0)
            << m << "x" << n << "x" << k;
      }
    }
  }
}

TEST(Gemm, BitExactWithScalarIkjLoop) {
  expect_bit_exact_ikj(gemm, /*transposed_a=*/false);
}

TEST(GemmTn, BitExactWithScalarIkjLoop) {
  expect_bit_exact_ikj(gemm_tn, /*transposed_a=*/true);
}

TEST(GemmNt, RowBitsIndependentOfBatch) {
  // A row's sums must not depend on which register block (or pool chunk)
  // it lands in: compress output would otherwise change with the thread
  // count and the serving batch with the batch size.
  util::Pcg32 rng(4);
  const std::int64_t n = 9;  // odd: the last column takes the dot tail
  for (std::int64_t k : {37, 300}) {  // k % 8 != 0 and k % 16 >= 8: tails
    auto bt = random_matrix(n * k, rng);
    for (std::int64_t m = 1; m <= 13; ++m) {
      auto a = random_matrix(m * k, rng);
      std::vector<float> c(m * n, 0.0f);
      gemm_nt(m, n, k, a.data(), bt.data(), c.data());
      for (std::int64_t i = 0; i < m; ++i) {
        std::vector<float> row(n, 0.0f);
        gemm_nt(1, n, k, a.data() + i * k, bt.data(), row.data());
        ASSERT_EQ(
            std::memcmp(row.data(), c.data() + i * n, n * sizeof(float)), 0)
            << "row " << i << " of " << m << ", k " << k;
      }
    }
  }
}

TEST(Im2Col, IdentityKernelNoPad) {
  // 1x1 kernel, stride 1, no pad: columns == input.
  std::vector<float> input = {1, 2, 3, 4};
  std::vector<float> cols(4);
  im2col(input.data(), 1, 2, 2, 1, 1, 0, cols.data());
  EXPECT_EQ(cols, input);
}

TEST(Im2Col, KnownSmallCase) {
  // 1 channel 3x3 input, 2x2 kernel, stride 1, pad 0 -> 4 output positions.
  std::vector<float> input = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(2 * 2 * 4);
  im2col(input.data(), 1, 3, 3, 2, 1, 0, cols.data());
  // Row 0 = kernel tap (0,0): values at top-left of each window.
  EXPECT_FLOAT_EQ(cols[0 * 4 + 0], 1);
  EXPECT_FLOAT_EQ(cols[0 * 4 + 1], 2);
  EXPECT_FLOAT_EQ(cols[0 * 4 + 2], 4);
  EXPECT_FLOAT_EQ(cols[0 * 4 + 3], 5);
  // Row 3 = kernel tap (1,1): bottom-right of each window.
  EXPECT_FLOAT_EQ(cols[3 * 4 + 0], 5);
  EXPECT_FLOAT_EQ(cols[3 * 4 + 3], 9);
}

TEST(Im2Col, PaddingProducesZeros) {
  std::vector<float> input = {1, 2, 3, 4};  // 2x2
  const int out = 2 + 2 * 1 - 3 + 1;        // pad 1, kernel 3 -> 2x2 output
  std::vector<float> cols(9 * out * out);
  im2col(input.data(), 1, 2, 2, 3, 1, 1, cols.data());
  // Kernel tap (0,0) at output (0,0) reads input (-1,-1) -> 0.
  EXPECT_FLOAT_EQ(cols[0], 0.0f);
}

TEST(Col2Im, InverseScatterOfIm2Col) {
  // col2im(im2col(x)) multiplies each input cell by its window coverage.
  std::vector<float> input = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::vector<float> cols(2 * 2 * 4);
  im2col(input.data(), 1, 3, 3, 2, 1, 0, cols.data());
  std::vector<float> back(9, 0.0f);
  col2im(cols.data(), 1, 3, 3, 2, 1, 0, back.data());
  // Corner cells covered once, edges twice, center four times.
  EXPECT_FLOAT_EQ(back[0], 1 * 1);
  EXPECT_FLOAT_EQ(back[1], 2 * 2);
  EXPECT_FLOAT_EQ(back[4], 5 * 4);
  EXPECT_FLOAT_EQ(back[8], 9 * 1);
}

}  // namespace
}  // namespace deepsz::tensor
