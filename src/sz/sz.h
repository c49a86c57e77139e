// SZ-class error-bounded lossy compressor for 1-D float arrays, reimplementing
// the pipeline of Di & Cappello (IPDPS'16) / Tao et al. (IPDPS'17) / Liang et
// al. (SC'18) that DeepSZ builds on, specialized to the 1-D weight arrays
// produced by network pruning (the paper compresses CSR data arrays, which are
// 1-D):
//
//   1. adaptive best-fit prediction per block: Lorenzo order-1 (previous
//      value), Lorenzo order-2 (linear extrapolation), or a per-block linear
//      regression fit;
//   2. error-controlled linear-scaling quantization of the prediction
//      residual into 2^k intervals;
//   3. canonical Huffman coding of the quantization codes;
//   4. an optional lossless backend pass (Gzip/Zstd/Blosc-class) over the
//      whole stream.
//
// The ABS mode guarantees max|x_i - x'_i| <= eb for every point: any value the
// quantizer cannot represent within the bound is stored verbatim. Prediction
// always runs on *reconstructed* values so the decompressor never drifts.
//
// Two wire formats share this API (see docs/container_format.md for the byte
// layout):
//
//   stream v1 — the original monolithic layout: one Huffman table and one
//     backend pass over the whole array, inherently serial to decode.
//     Read-only: nothing writes it any more;
//   stream v2 — the chunked layout, the only one compress() emits: the array
//     is split into fixed-size chunks (64 Ki floats by default), each
//     carrying its own predictor state, Huffman table and outlier region,
//     with a per-chunk offset table in the header, so chunks encode and
//     decode independently and in parallel on util::ThreadPool::global().
//
// decompress()/inspect() auto-detect and accept both; the v1 decode path is
// frozen — existing streams keep decoding bit-exactly (pinned by the
// committed tests/fixtures/sz_v1.szs).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lossless/codec.h"

namespace deepsz::sz {

/// How the error bound parameter is interpreted.
enum class ErrorBoundMode : std::uint8_t {
  kAbs = 0,   // |x - x'| <= error_bound, pointwise
  kRel = 1,   // |x - x'| <= error_bound * (max - min)
  kPsnr = 2,  // target PSNR in dB (error_bound holds the dB value)
};

/// Which predictor(s) the compressor may use.
enum class PredictorMode : std::uint8_t {
  kAdaptive = 0,        // best-fit per block (the SZ 2.0 design)
  kLorenzo1Only = 1,    // always predict with the previous value
  kLorenzo2Only = 2,    // always linear extrapolation from two values
  kRegressionOnly = 3,  // always per-block least-squares line
};

/// Compression parameters. Defaults match the configuration DeepSZ uses.
struct SzParams {
  ErrorBoundMode mode = ErrorBoundMode::kAbs;
  /// Error bound value; meaning depends on `mode`.
  double error_bound = 1e-3;
  /// Number of linear-scaling quantization intervals (power of two, >= 16).
  std::uint32_t quant_bins = 65536;
  PredictorMode predictor = PredictorMode::kAdaptive;
  /// Block length for predictor selection and regression fitting.
  std::uint32_t block_size = 256;
  /// Lossless backend pass over each chunk (kStore disables).
  lossless::CodecId backend = lossless::CodecId::kZstdLike;
  /// Floats per independently-decodable chunk (>= 16).
  std::uint32_t chunk_size = 64 * 1024;
};

/// Facts about a compressed stream, recovered without decompressing.
struct SzStreamInfo {
  std::uint64_t count = 0;          // number of floats
  double abs_error_bound = 0.0;     // resolved absolute bound
  std::uint32_t quant_bins = 0;
  std::uint32_t block_size = 0;
  std::uint64_t unpredictable = 0;  // values stored verbatim
  PredictorMode predictor = PredictorMode::kAdaptive;
  lossless::CodecId backend = lossless::CodecId::kStore;
  std::uint32_t stream_version = 1;  // wire format (1 or 2)
  std::uint32_t chunk_size = 0;      // v2: floats per chunk (0 for v1)
  std::uint64_t n_chunks = 0;        // v2: independent chunks (0 for v1)
};

/// Compresses `data` into a stream-v2 payload; the result is
/// self-describing.
std::vector<std::uint8_t> compress(std::span<const float> data,
                                   const SzParams& params);

/// Decompresses a stream produced by compress(). Throws std::runtime_error on
/// corrupt input.
std::vector<float> decompress(std::span<const std::uint8_t> stream);

/// Parses only the stream header.
SzStreamInfo inspect(std::span<const std::uint8_t> stream);

/// Convenience: compression ratio achieved on `data` under `params`.
double compression_ratio(std::span<const float> data, const SzParams& params);

}  // namespace deepsz::sz
