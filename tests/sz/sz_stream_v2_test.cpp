// SZ stream v2 (chunked, parallel-decodable) unit tests: round-trip bound
// across chunk-boundary shapes, codec-spec options (including the read-only
// "stream=1"), and decode determinism. Corruption coverage lives in
// sz_v2_corrupt_test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "codec/codec.h"
#include "codec/registry.h"
#include "sz/sz.h"
#include "tests/sz/sz_v1_fixture.h"
#include "util/rng.h"
#include "util/stats.h"

namespace deepsz::sz {
namespace {

std::vector<float> weight_like(std::size_t n, std::uint64_t seed) {
  util::Pcg32 rng(seed);
  std::vector<float> out(n);
  for (auto& v : out) {
    float w = 0;
    while (std::abs(w) < 0.01f) w = static_cast<float>(rng.laplace(0.03));
    v = std::clamp(w, -0.3f, 0.3f);
  }
  return out;
}

TEST(SzStreamV2, RoundTripAcrossChunkBoundaryShapes) {
  SzParams params;
  params.error_bound = 1e-3;
  params.chunk_size = 1024;
  // Sizes straddling every chunk-boundary case: below one chunk, exactly
  // one, one-plus, several, several-plus-remainder.
  for (std::size_t n : {std::size_t{1}, std::size_t{17}, std::size_t{1023},
                        std::size_t{1024}, std::size_t{1025},
                        std::size_t{4096}, std::size_t{5000}}) {
    auto data = weight_like(n, 100 + n);
    auto stream = compress(data, params);
    auto back = decompress(stream);
    ASSERT_EQ(back.size(), n);
    EXPECT_LE(util::max_abs_error(data, back), 1e-3 * (1.0 + 1e-12))
        << "n=" << n;
    auto info = inspect(stream);
    EXPECT_EQ(info.stream_version, 2u);
    EXPECT_EQ(info.count, n);
    EXPECT_EQ(info.chunk_size, 1024u);
    EXPECT_EQ(info.n_chunks, (n + 1023) / 1024);
  }
}

TEST(SzStreamV2, DefaultCompressEmitsV2) {
  auto data = weight_like(5000, 7);
  auto info = inspect(compress(data, SzParams{}));
  EXPECT_EQ(info.stream_version, 2u);
  EXPECT_EQ(info.chunk_size, 64u * 1024u);
}

TEST(SzStreamV2, DecodeIsDeterministic) {
  // Chunks decode concurrently into disjoint output ranges; the result must
  // not depend on scheduling.
  auto data = weight_like(200000, 10);
  SzParams params;
  params.chunk_size = 4096;  // dozens of chunks
  auto stream = compress(data, params);
  auto a = decompress(stream);
  auto b = decompress(stream);
  EXPECT_EQ(a, b);
}

TEST(SzStreamV2, EveryPredictorModeHoldsBound) {
  // kRegressionOnly drives the AVX2 quantize/reconstruct fast path on x86
  // hosts; all modes must keep the pointwise bound.
  util::Pcg32 rng(11);
  std::vector<float> data(50000);
  float walk = 0.0f;
  for (auto& v : data) {
    walk += static_cast<float>(rng.normal(0.0, 0.001));
    v = walk;
  }
  for (auto mode :
       {PredictorMode::kAdaptive, PredictorMode::kLorenzo1Only,
        PredictorMode::kLorenzo2Only, PredictorMode::kRegressionOnly}) {
    SzParams params;
    params.error_bound = 1e-3;
    params.predictor = mode;
    params.chunk_size = 8192;
    auto back = decompress(compress(data, params));
    ASSERT_EQ(back.size(), data.size());
    EXPECT_LE(util::max_abs_error(data, back), 1e-3 * (1.0 + 1e-12))
        << "mode " << static_cast<int>(mode);
  }
}

TEST(SzStreamV2, BackendsAllDecodeIdentically) {
  auto data = weight_like(60000, 12);
  SzParams params;
  params.chunk_size = 8192;
  std::vector<float> reference;
  for (auto backend :
       {lossless::CodecId::kStore, lossless::CodecId::kGzipLike,
        lossless::CodecId::kZstdLike, lossless::CodecId::kBloscLike}) {
    params.backend = backend;
    auto back = decompress(compress(data, params));
    if (reference.empty()) {
      reference = back;
    } else {
      ASSERT_EQ(back, reference) << codec_name(backend);
    }
  }
}

TEST(SzStreamV2, OutlierHeavyDataStaysWithinBound) {
  // Spike values exceed the quantizer range, exercising the per-chunk
  // outlier regions (and the AVX2 lane fix-up on x86).
  auto data = weight_like(30000, 13);
  for (std::size_t i = 0; i < data.size(); i += 100) {
    data[i] = (i % 200 == 0) ? 1e25f : -1e25f;
  }
  SzParams params;
  params.error_bound = 1e-3;
  params.chunk_size = 4096;
  auto stream = compress(data, params);
  auto back = decompress(stream);
  EXPECT_LE(util::max_abs_error(data, back), 1e-3 * (1.0 + 1e-12));
  EXPECT_GE(inspect(stream).unpredictable, data.size() / 200);
}

TEST(SzStreamV2, EmptyInput) {
  auto stream = compress({}, SzParams{});
  EXPECT_TRUE(decompress(stream).empty());
  EXPECT_EQ(inspect(stream).n_chunks, 0u);
}

TEST(SzStreamV2, CodecSpecSelectsStreamVersion) {
  auto& reg = codec::CodecRegistry::instance();
  auto data = weight_like(3000, 14);
  auto v2 = reg.make_float("sz:stream=2,chunk_size=512")->encode(data, {1e-3});
  EXPECT_EQ(inspect(v2).stream_version, 2u);
  EXPECT_EQ(inspect(v2).n_chunks, 6u);
  EXPECT_EQ(reg.make_float("sz")->encode(data, {1e-3}),
            reg.make_float("sz:stream=2")->encode(data, {1e-3}));
  // v1 is read-only: the spec still resolves (containers on disk record
  // it), but selecting it for a new stream is refused.
  EXPECT_THROW(reg.make_float("sz:stream=1")->encode(data, {1e-3}),
               codec::BadOptions);
}

TEST(SzStreamV2, StreamOneSpecDecodesEitherVersion) {
  auto& reg = codec::CodecRegistry::instance();
  auto v1_codec = reg.make_float("sz:stream=1");
  const auto v1 = sz_v1_fixture();
  EXPECT_EQ(inspect(v1).stream_version, 1u);
  EXPECT_EQ(v1_codec->decode(v1), decompress(v1));
  auto data = weight_like(3000, 15);
  auto v2 = reg.make_float("sz")->encode(data, {1e-3});
  EXPECT_EQ(v1_codec->decode(v2), decompress(v2));
}

TEST(SzStreamV2, BadSpecOptionsThrow) {
  auto& reg = codec::CodecRegistry::instance();
  EXPECT_THROW(reg.make_float("sz:stream=3"), codec::BadOptions);
  EXPECT_THROW(reg.make_float("sz:chunk_size=8"), codec::BadOptions);
}

}  // namespace
}  // namespace deepsz::sz
