// Dense math kernels for the DNN substrate: GEMM (the workhorse of both
// fc-layers and im2col-based convolution) and the im2col/col2im transforms.
//
// Every GEMM parallelizes over rows of C with the thread pool, and no C
// element's arithmetic depends on how the rows were split, so results are
// identical for any DEEPSZ_THREADS. On AVX2 hosts (util::have_avx2_fma(),
// off under DEEPSZ_NO_AVX2) each runs a register-blocked intrinsics kernel;
// otherwise a scalar loop.
//
// gemm and gemm_tn share one ikj kernel (A read through a row and a k
// stride). Its AVX2 form keeps a 6x16 tile of C in ymm registers across the
// k loop and is compiled without `fma`: each product is rounded and then
// added, in k order, so it is bit-identical to the scalar loop. The scalar
// loop skips A[i][kk] == 0 and the AVX2 kernel does not; for finite inputs
// and no C entry starting at -0 that changes nothing: adding a ±0 product
// leaves any C value but -0 unchanged, and a C element that does not start
// at -0 never becomes -0 (round-to-nearest cancellation yields +0). The nn
// layers start C at +0.
//
// gemm_nt (the Dense forward and the conv dW) reduces each C element along
// k in one accumulator chain; its AVX2 form uses FMA and 8-lane partial
// sums, so it matches the scalar path only to rounding, but a row's bits do
// not depend on the batch it rides in.
#pragma once

#include <cstdint>
#include <span>

namespace deepsz::tensor {

/// C[MxN] += A[MxK] * B[KxN]   (row-major; C must be pre-initialized).
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
          const float* b, float* c);

/// C[MxN] += A[MxK] * B[NxK]^T (B stored row-major as NxK).
void gemm_nt(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c);

/// C[MxN] += A[KxM]^T * B[KxN] (A stored row-major as KxM).
void gemm_tn(std::int64_t m, std::int64_t n, std::int64_t k, const float* a,
             const float* b, float* c);

/// im2col for 2-D convolution: input [C, H, W] -> columns
/// [C*kh*kw, out_h*out_w], with zero padding.
void im2col(const float* input, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t pad, float* columns);

/// Transpose of im2col, used in the convolution backward pass: scatters
/// column gradients back into an input-shaped gradient buffer (accumulating).
void col2im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kernel, std::int64_t stride,
            std::int64_t pad, float* input_grad);

}  // namespace deepsz::tensor
