// Batched sparse forward pass over a served fc stack.
//
// DeepSZ's decoded model IS a sparse model: after pruning, ~85-95% of every
// fc matrix is exact zeros, and the dense GEMM the generic forward runs
// spends most of its FLOPs multiplying them. sparse_fc_forward instead
// walks each layer's CSR view (built once at decode, see ServedLayer) and,
// for a batch of M rows, works in the transposed domain — activations are
// held as xT[features][M], so one weight nonzero issues M contiguous
// multiply-accumulates. The batch is transposed once on entry and once on
// exit; every layer in between touches only surviving weights.
//
// Per-row cost therefore scales with nnz/M + density, which is what makes
// micro-batched serving (server/scheduler.h) pay: the batched/unbatched
// throughput gap widens with the pruning ratio instead of living off cache
// effects alone.
//
// Layers in the compressed-domain form (ServingForm::kCodebookCsr) run the
// same transposed walk, but each nonzero's weight is a codebook lookup
// (u8/u16 id -> f32 centroid) instead of a stored f32. There is one kernel
// per backend: it gathers a codebook row's centroids into a small scratch
// tile first (on AVX2 with _mm256_i32gather_ps) and then runs the row
// through the same loop an f32 row runs through, so for the same CSR
// content the two forms produce bit-identical outputs backend-for-backend.
//
// Numerics: summation order differs from the dense path, so logits agree to
// normal fp tolerance (~1e-5 relative), not bit-exactly. Between the two
// forms on ONE backend (csr_val vs codebook) outputs are bit-exact;
// between backends (scalar vs AVX2) only fp-tolerant.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/model_store.h"
#include "tensor/tensor.h"

namespace deepsz::serve {

/// True when this build+host can run the vectorized sparse path and the
/// batch is large enough for it to beat the dense kernel.
bool sparse_forward_profitable(std::int64_t batch_rows);

/// Kernel selection for sparse_fc_forward. kAuto picks the AVX2+FMA kernel
/// when the host supports it and the scalar reference otherwise; the
/// forced modes exist for the differential test harness, which compares the
/// two backends' outputs. kAvx2 throws std::invalid_argument on a host (or
/// build) without AVX2+FMA.
enum class ForwardBackend { kAuto, kScalar, kAvx2 };

/// Runs x [M, layers[0]->cols] through the stack (ReLU between layers, none
/// after the last) using each layer's CSR weights + bias; kCodebookCsr
/// layers gather their centroids row by row, never touching a dense matrix.
/// Layers must chain (rows_i == cols_{i+1}) and carry a CSR view; throws
/// std::invalid_argument otherwise.
tensor::Tensor sparse_fc_forward(
    const std::vector<std::shared_ptr<const ServedLayer>>& layers,
    const tensor::Tensor& x, ForwardBackend backend = ForwardBackend::kAuto);

}  // namespace deepsz::serve
