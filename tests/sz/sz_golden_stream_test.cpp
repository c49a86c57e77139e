// Golden SZ stream fixtures: one checked-in stream per wire format that
// must keep decoding bit-exactly, forever. sz_v1.szs pins the frozen v1
// (monolithic) decode path that every pre-chunking container in the wild
// depends on; sz_v2.szs pins the chunked v2 layout. A failure here means a
// decode-path behavior change for existing files — a breaking release, not
// a refactor.
//
// sz_v2.szs is reproduced by tools/make_golden_fixtures.cpp (with
// DEEPSZ_NO_AVX2=1 so encoding is host-independent); change it and its
// constants only for a deliberate, versioned format change. sz_v1.szs is
// frozen: the v1 encoder is gone, so no tool writes it and it never changes
// (see docs/container_format.md). The CI sanitizer job runs this suite
// explicitly so the frozen v1 parser stays ASan/UBSan-clean too.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "sz/sz.h"
#include "util/crc32.h"
#include "util/stats.h"

namespace deepsz::sz {
namespace {

std::vector<std::uint8_t> read_fixture(const std::string& name) {
  const std::string path = std::string(DEEPSZ_FIXTURE_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    ADD_FAILURE() << "missing fixture " << path;
    return {};
  }
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
  return data;
}

std::uint32_t float_crc(const std::vector<float>& v) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()),
      v.size() * sizeof(float)));
}

TEST(SzGoldenStream, V1FixtureDecodesBitExactly) {
  auto stream = read_fixture("sz_v1.szs");
  ASSERT_EQ(stream.size(), 3497u);
  ASSERT_EQ(util::crc32(stream), 0x76f608b5u) << "fixture file changed";

  auto info = inspect(stream);
  EXPECT_EQ(info.stream_version, 1u);
  EXPECT_EQ(info.count, 4000u);
  EXPECT_DOUBLE_EQ(info.abs_error_bound, 1e-3);
  EXPECT_EQ(info.n_chunks, 0u);

  auto decoded = decompress(stream);
  ASSERT_EQ(decoded.size(), 4000u);
  EXPECT_EQ(float_crc(decoded), 0x4f59f2c0u)
      << "v1 decode changed behavior for an existing stream";
}

TEST(SzGoldenStream, V2FixtureDecodesBitExactly) {
  auto stream = read_fixture("sz_v2.szs");
  ASSERT_EQ(stream.size(), 4081u);
  ASSERT_EQ(util::crc32(stream), 0x9a72eb25u) << "fixture file changed";

  auto info = inspect(stream);
  EXPECT_EQ(info.stream_version, 2u);
  EXPECT_EQ(info.count, 4000u);
  EXPECT_EQ(info.chunk_size, 1500u);
  EXPECT_EQ(info.n_chunks, 3u);

  auto decoded = decompress(stream);
  ASSERT_EQ(decoded.size(), 4000u);
  EXPECT_EQ(float_crc(decoded), 0x4a9e62bcu)
      << "v2 decode changed behavior for an existing stream";
}

TEST(SzGoldenStream, BothFixturesHoldTheRecordedBound) {
  // The two fixtures encode the same source values at eb=1e-3; their
  // decodes must agree with each other within 2*eb even though the chunked
  // layout resets predictor history at chunk boundaries.
  auto v1 = decompress(read_fixture("sz_v1.szs"));
  auto v2 = decompress(read_fixture("sz_v2.szs"));
  ASSERT_EQ(v1.size(), v2.size());
  EXPECT_LE(util::max_abs_error(v1, v2), 2e-3 * (1.0 + 1e-12));
}

}  // namespace
}  // namespace deepsz::sz
