// Corruption/fuzz tests for DSZC v4 delta containers: forged base
// identities, wrong or missing bases, chain cycles and over-depth chains,
// every-prefix truncation, a byte-flip sweep over the delta records, and
// re-signed CRC forgeries (tampered streams with self-consistent stream
// CRCs). Every failure must surface as a clean std::runtime_error — never a
// crash, an escape of another exception type, and NEVER a silently wrong
// model. (This suite runs under ASan+UBSan in the sanitizer CI job.)
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "server/model_repository.h"
#include "tests/core/container_footer.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace deepsz::core {
namespace {

std::vector<sparse::PrunedLayer> some_layers(std::uint64_t seed = 31) {
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(
      data::synthesize_pruned_layer("fc1", 24, 32, 0.25, seed));
  layers.push_back(
      data::synthesize_pruned_layer("fc2", 16, 24, 0.30, seed + 1));
  return layers;
}

std::vector<std::uint8_t> full_container(std::uint64_t seed = 31) {
  return encode_model(some_layers(seed), {}, ContainerOptions{}).bytes;
}

std::vector<std::uint8_t> successor_container(std::uint64_t seed = 31) {
  auto layers = some_layers(seed);
  util::Pcg32 rng(seed ^ 0x5eed);
  for (auto& l : layers) {
    for (auto& v : l.data) v += static_cast<float>(rng.normal(0.0, 2e-3));
  }
  return encode_model(layers, {}, ContainerOptions{}).bytes;
}

std::vector<std::uint8_t> delta_container(
    const std::vector<std::uint8_t>& base,
    const std::vector<std::uint8_t>& target,
    const std::string& base_id = "base.dszc") {
  DeltaOptions opts;
  opts.base_id = base_id;
  return encode_delta_model(base, target, opts).bytes;
}

/// Decodes every layer + bias through the chain; the reference the fuzz
/// sweeps compare survivors against.
struct DecodedModel {
  std::vector<sparse::PrunedLayer> layers;
  std::vector<std::vector<float>> biases;

  bool bits_equal(const DecodedModel& other) const {
    if (layers.size() != other.layers.size()) return false;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      const auto& a = layers[i];
      const auto& b = other.layers[i];
      if (a.rows != b.rows || a.cols != b.cols || a.index != b.index ||
          a.data.size() != b.data.size() ||
          std::memcmp(a.data.data(), b.data.data(),
                      a.data.size() * sizeof(float)) != 0 ||
          biases[i] != other.biases[i]) {
        return false;
      }
    }
    return true;
  }
};

DecodedModel decode_all(const std::vector<std::uint8_t>& delta,
                        const std::vector<std::uint8_t>& base) {
  ContainerReader reader(delta);
  reader.set_base(std::make_shared<ContainerReader>(base));
  DecodedModel out;
  for (std::size_t i = 0; i < reader.num_layers(); ++i) {
    out.layers.push_back(reader.decode_layer(i));
    out.biases.push_back(reader.decode_bias(i));
  }
  return out;
}

TEST(DeltaCorrupt, MissingBaseIsACleanError) {
  auto base = full_container();
  auto delta = delta_container(base, successor_container());
  ContainerReader reader(delta);
  for (std::size_t i = 0; i < reader.num_layers(); ++i) {
    EXPECT_THROW((void)reader.decode_layer(i), std::runtime_error) << i;
  }
}

TEST(DeltaCorrupt, WrongBaseRejectedAtAttach) {
  auto base = full_container(31);
  auto delta = delta_container(base, successor_container());
  ContainerReader reader(delta);
  // A different container: whole-file CRC mismatch, rejected up front.
  EXPECT_THROW(
      reader.set_base(std::make_shared<ContainerReader>(full_container(77))),
      std::runtime_error);
  // The right base still attaches afterwards.
  reader.set_base(std::make_shared<ContainerReader>(base));
  EXPECT_NO_THROW((void)reader.decode_layer(std::size_t{0}));
}

TEST(DeltaCorrupt, ForgedBaseCrcAcceptsWrongBaseButLayerPinsCatchIt) {
  // The attacker re-signs the header's base_crc to a base of their
  // choosing. set_base then accepts the wrong base — but every record pins
  // CRCs of the base arrays it diffed against, so decode must throw rather
  // than reconstruct garbage.
  auto base = full_container(31);
  auto wrong_base = full_container(77);
  auto delta = strip_footer(delta_container(base, successor_container()));

  // base_crc is the last 4 header bytes: magic, version, n_layers, base_id
  // (u64 length + chars), then the u32 crc.
  ContainerReader probe(delta);
  const std::size_t crc_pos = 12 + 8 + probe.base_id().size();
  const std::uint32_t forged = util::crc32(wrong_base);
  std::memcpy(delta.data() + crc_pos, &forged, sizeof forged);

  ContainerReader reader(delta);
  reader.set_base(std::make_shared<ContainerReader>(wrong_base));
  for (std::size_t i = 0; i < reader.num_layers(); ++i) {
    EXPECT_THROW((void)reader.decode_layer(i), std::runtime_error) << i;
  }
}

TEST(DeltaCorrupt, FlippedBaseIdStillResolvesByCrc) {
  // The base_id is a locator hint, not the identity: mangling it must not
  // affect decoding against a base attached directly (identity is the CRC).
  auto base = full_container();
  auto delta = strip_footer(delta_container(base, successor_container()));
  const auto truth = decode_all(delta, base);
  delta[12 + 8] ^= 0x01;  // first base_id character
  auto tampered = decode_all(delta, base);
  EXPECT_TRUE(tampered.bits_equal(truth));
}

TEST(DeltaCorrupt, FileChainCycleIsACleanError) {
  // cycle_a's header names cycle_b as its base and vice versa: the
  // repository's cold file-chain walk must stop with a cycle error, not
  // recurse forever.
  const std::string dir = ::testing::TempDir();
  auto base = full_container();
  auto a = delta_container(base, successor_container(31),
                           "delta_cycle_b.dszc");
  auto b = delta_container(base, successor_container(32),
                           "delta_cycle_a.dszc");
  auto write = [&](const std::string& name,
                   const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen((dir + name).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  };
  write("delta_cycle_a.dszc", a);
  write("delta_cycle_b.dszc", b);

  server::ModelRepository repo;
  try {
    repo.load_file("m", dir + "delta_cycle_a.dszc");
    FAIL() << "cyclic base chain accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(repo.size(), 0u);
}

TEST(DeltaCorrupt, OverDepthChainIsACleanError) {
  // Build a resolved chain at the reader level until the depth bound trips:
  // hop k diffs against the chain of k-1 resolved deltas.
  auto genesis = full_container(500);
  std::vector<std::vector<std::uint8_t>> files;  // bytes must outlive readers
  files.push_back(genesis);
  auto chain = std::make_shared<ContainerReader>(files.back());
  for (int hop = 1; hop <= ContainerReader::kMaxChainDepth + 1; ++hop) {
    auto target = successor_container(500 + hop);
    auto delta = encode_delta_model(*chain, target, DeltaOptions{}).bytes;
    files.push_back(std::move(delta));
    auto next = std::make_shared<ContainerReader>(files.back());
    if (hop == ContainerReader::kMaxChainDepth + 1) {
      EXPECT_THROW(next->set_base(chain), std::runtime_error);
      return;
    }
    next->set_base(chain);
    EXPECT_EQ(next->chain_depth(), hop);
    chain = next;
  }
  FAIL() << "depth bound never tripped";
}

TEST(DeltaCorrupt, EveryTruncationFailsCleanlyExceptExactRecordsEnd) {
  auto base = full_container();
  auto bytes = delta_container(base, successor_container());
  std::uint64_t body_len = 0;
  std::memcpy(&body_len, bytes.data() + bytes.size() - 12, 8);
  const std::size_t records_end =
      bytes.size() - 16 - static_cast<std::size_t>(body_len);

  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + keep);
    if (keep == records_end) {
      // Exactly the records: a valid footerless delta container.
      ContainerReader reader(cut);
      EXPECT_TRUE(reader.is_delta());
      continue;
    }
    try {
      ContainerReader reader(cut);
      FAIL() << "truncation to " << keep << "/" << bytes.size()
             << " not detected";
    } catch (const std::runtime_error&) {
      // required failure mode
    }
  }
}

TEST(DeltaCorrupt, ByteFlipSweepNeverCrashesOrServesWrongBits) {
  auto base = full_container();
  auto bytes = delta_container(base, successor_container());
  const auto truth = decode_all(bytes, base);

  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    auto corrupt = bytes;
    corrupt[pos] ^= static_cast<std::uint8_t>(1u << (pos % 8));
    try {
      auto decoded = decode_all(corrupt, base);
      // A flip that lands in dead space (e.g. inline record headers
      // shadowed by the footer directory) may go unnoticed — but then the
      // decode MUST be bit-identical to the truth. Wrong bits are the one
      // unacceptable outcome.
      EXPECT_TRUE(decoded.bits_equal(truth))
          << "flip at " << pos << " silently changed the decoded model";
    } catch (const std::runtime_error&) {
      // clean rejection
    } catch (const std::out_of_range&) {
      // name lookups after a flipped directory name miss: also clean
    }
  }
}

TEST(DeltaCorrupt, ResignedStreamForgeryCaughtByReconstructionPins) {
  // The strongest forgery: tamper a delta record's residual stream AND
  // re-sign its stream CRC so the checksum layer passes. The decoded
  // residual then differs, the XOR corrections no longer line up, and the
  // record's reconstruction CRC pins must refuse — under no circumstances
  // may the store serve the forged bits as the model.
  auto base = full_container();
  auto bytes = strip_footer(delta_container(base, successor_container()));
  const auto truth = decode_all(bytes, base);

  ContainerReader probe(bytes);
  std::size_t forged = 0, caught = 0;
  for (std::size_t i = 0; i < probe.num_layers(); ++i) {
    const auto& e = probe.entry(i);
    if (e.kind != LayerKind::kDelta || e.data.length == 0) continue;
    const auto off = static_cast<std::size_t>(e.data.offset);
    const auto len = static_cast<std::size_t>(e.data.length);
    for (std::size_t k = 0; k < len; k += 7) {
      auto corrupt = bytes;
      corrupt[off + k] ^= 0x01;
      // Re-sign: the stream's inline CRC sits directly before its payload.
      const std::uint32_t resigned = util::crc32(
          std::span<const std::uint8_t>(corrupt.data() + off, len));
      std::memcpy(corrupt.data() + off - 4, &resigned, sizeof resigned);
      ++forged;
      try {
        auto decoded = decode_all(corrupt, base);
        EXPECT_TRUE(decoded.bits_equal(truth))
            << "re-signed forgery at stream " << i << "+" << k
            << " served wrong bits";
      } catch (const std::runtime_error&) {
        ++caught;
      }
    }
  }
  ASSERT_GT(forged, 0u);
  // The pins must actually fire: a sweep where every tampering decoded
  // "fine" would mean the reconstruction CRCs verify nothing.
  EXPECT_GT(caught, forged / 2);
}

TEST(DeltaCorrupt, SweepOverCorrectionAndMaskStreams) {
  // Same property, aimed at the corr and mask streams through their footer
  // directory extents (corr flips change reconstructed bits directly, so
  // the recon pins are the only thing standing between a flip and a
  // silently wrong model).
  auto base = full_container();
  auto bytes = delta_container(base, successor_container());
  const auto truth = decode_all(bytes, base);

  ContainerReader probe(bytes);
  std::size_t caught = 0;
  for (std::size_t i = 0; i < probe.num_layers(); ++i) {
    const auto& e = probe.entry(i);
    if (e.corr.length == 0) continue;
    const auto off = static_cast<std::size_t>(e.corr.offset);
    for (std::size_t k = 0; k < static_cast<std::size_t>(e.corr.length);
         k += 5) {
      auto corrupt = bytes;
      corrupt[off + k] ^= 0x10;
      try {
        auto decoded = decode_all(corrupt, base);
        EXPECT_TRUE(decoded.bits_equal(truth))
            << "corr flip at " << i << "+" << k << " served wrong bits";
      } catch (const std::runtime_error&) {
        ++caught;
      }
    }
  }
  EXPECT_GT(caught, 0u);
}

}  // namespace
}  // namespace deepsz::core
