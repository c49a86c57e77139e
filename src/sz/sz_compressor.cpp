#include <algorithm>
#include <cmath>
#include <new>
#include <stdexcept>
#include <vector>

#include "lossless/entropy.h"
#include "sz/predictor.h"
#include "sz/quantizer.h"
#include "sz/stream_v2.h"
#include "sz/sz.h"
#include "util/bitstream.h"
#include "util/byte_io.h"
#include "util/stats.h"

// This file owns the public entry points and the read-only stream-v1 decoder
// (monolithic layout, serial decode). The chunked v2 layout, the only one
// compress() writes, lives in stream_v2.cpp; decompress()/inspect() dispatch
// on the tag byte after the magic.

namespace deepsz::sz {
namespace {

constexpr std::uint32_t kMagic = 0x575a5344;  // "DSZW"
constexpr std::uint32_t kVersion = 1;

double resolve_abs_eb(std::span<const float> data, const SzParams& params) {
  switch (params.mode) {
    case ErrorBoundMode::kAbs:
      return params.error_bound;
    case ErrorBoundMode::kRel: {
      double range = util::summarize(data).range();
      return range > 0 ? params.error_bound * range : params.error_bound;
    }
    case ErrorBoundMode::kPsnr: {
      // Uniform quantization noise has RMSE = eb / sqrt(3); pick eb so that
      // 20*log10(range / rmse) hits the requested dB target.
      double range = util::summarize(data).range();
      if (range <= 0) return 1e-6;
      double target_rmse = range / std::pow(10.0, params.error_bound / 20.0);
      return target_rmse * std::sqrt(3.0);
    }
  }
  throw std::invalid_argument("sz: unknown error bound mode");
}

}  // namespace

std::vector<std::uint8_t> compress(std::span<const float> data,
                                   const SzParams& params) {
  if (params.error_bound <= 0) {
    throw std::invalid_argument("sz: error bound must be positive");
  }
  return v2::compress(data, params, resolve_abs_eb(data, params));
}

namespace {

struct ParsedHeader {
  SzStreamInfo info;
  std::uint64_t n_blocks = 0;
  std::vector<std::uint8_t> payload;
};

// Ceiling on the element count a header may declare (4 TB of floats);
// anything larger is treated as corruption rather than allocated.
constexpr std::uint64_t kMaxDeclaredCount = 1ull << 40;

/// Parses the outer frame and fixed header with every read bounds-checked.
/// Corrupt or truncated input throws std::runtime_error, never reads past
/// the buffer, and never triggers an attacker-sized allocation.
ParsedHeader parse(std::span<const std::uint8_t> stream) {
  util::ByteReader outer(stream);
  if (outer.get<std::uint32_t>() != kMagic) {
    throw std::runtime_error("sz: bad magic");
  }
  if (outer.remaining() == 0) {
    throw std::runtime_error("sz: truncated stream (missing backend frame)");
  }
  ParsedHeader ph;
  ph.info.backend =
      static_cast<lossless::CodecId>(stream[outer.pos()]);  // frame's codec id
  ph.payload = lossless::decompress(stream.subspan(outer.pos()));

  util::ByteReader r(ph.payload);
  if (r.get<std::uint32_t>() != kVersion) {
    throw std::runtime_error("sz: unsupported version");
  }
  ph.info.count = r.get<std::uint64_t>();
  ph.info.abs_error_bound = r.get<double>();
  ph.info.quant_bins = r.get<std::uint32_t>();
  ph.info.block_size = r.get<std::uint32_t>();
  ph.info.predictor = static_cast<PredictorMode>(r.get<std::uint8_t>());
  ph.info.unpredictable = r.get<std::uint64_t>();
  ph.n_blocks = r.get<std::uint64_t>();

  // Cross-field consistency: compress() enforces these invariants, so any
  // violation means the header bytes are corrupt.
  if (ph.info.count > kMaxDeclaredCount) {
    throw std::runtime_error("sz: corrupt header (implausible count)");
  }
  if (ph.info.quant_bins < 16 || ph.info.block_size < 16) {
    throw std::runtime_error("sz: corrupt header (bins/block_size too small)");
  }
  if (!(ph.info.abs_error_bound > 0.0) ||
      !std::isfinite(ph.info.abs_error_bound)) {
    throw std::runtime_error("sz: corrupt header (bad error bound)");
  }
  const std::uint64_t expect_blocks =
      (ph.info.count + ph.info.block_size - 1) / ph.info.block_size;
  if (ph.n_blocks != expect_blocks) {
    throw std::runtime_error("sz: corrupt header (block count mismatch)");
  }
  if (ph.info.unpredictable > ph.info.count) {
    throw std::runtime_error(
        "sz: corrupt header (unpredictable exceeds count)");
  }
  return ph;
}

/// Converts bounds-check and allocation failures escaping `fn` into
/// std::runtime_error so corrupt input surfaces as one exception type.
template <typename Fn>
auto guard_corrupt(const char* what, Fn&& fn) {
  try {
    return fn();
  } catch (const std::out_of_range&) {
    throw std::runtime_error(std::string("sz: truncated ") + what);
  } catch (const std::length_error&) {
    throw std::runtime_error(std::string("sz: corrupt ") + what);
  } catch (const std::bad_alloc&) {
    throw std::runtime_error(std::string("sz: corrupt ") + what);
  }
}

}  // namespace

SzStreamInfo inspect(std::span<const std::uint8_t> stream) {
  return guard_corrupt("header", [&] {
    if (v2::is_v2(stream)) return v2::inspect(stream);
    return parse(stream).info;
  });
}

namespace {

std::vector<float> decompress_checked(std::span<const std::uint8_t> stream) {
  ParsedHeader ph = parse(stream);
  const auto& info = ph.info;
  util::ByteReader r(ph.payload);
  // Skip the already-parsed fixed header.
  r.get<std::uint32_t>();
  r.get<std::uint64_t>();
  r.get<double>();
  r.get<std::uint32_t>();
  r.get<std::uint32_t>();
  r.get<std::uint8_t>();
  r.get<std::uint64_t>();
  r.get<std::uint64_t>();

  const std::size_t n = static_cast<std::size_t>(info.count);
  const std::uint32_t block_size = info.block_size;
  const std::size_t n_blocks = static_cast<std::size_t>(ph.n_blocks);

  auto kbytes_len = static_cast<std::size_t>(r.get<std::uint64_t>());
  auto kbytes = r.get_bytes(kbytes_len);
  // Each block kind costs 2 bits of kbytes, so the payload actually present
  // bounds n_blocks; reject a forged count before the allocation below.
  if (n_blocks > kbytes.size() * 4) {
    throw std::runtime_error("sz: corrupt stream (kind bits truncated)");
  }
  std::vector<std::uint8_t> kinds(n_blocks);
  {
    util::BitReader kb(kbytes);
    for (auto& k : kinds) k = static_cast<std::uint8_t>(kb.read_bits(2));
  }

  auto n_fits = static_cast<std::size_t>(r.get<std::uint64_t>());
  if (n_fits > n_blocks) {
    throw std::runtime_error("sz: corrupt stream (more fits than blocks)");
  }
  std::vector<LineFit> fits(n_fits);
  for (auto& f : fits) {
    f.a = r.get<float>();
    f.b = r.get<float>();
  }

  auto huff_len = static_cast<std::size_t>(r.get<std::uint64_t>());
  auto huff_bytes = r.get_bytes(huff_len);

  std::vector<float> unpredictable(static_cast<std::size_t>(info.unpredictable));
  for (auto& v : unpredictable) v = r.get<float>();

  // Decode symbols.
  std::vector<std::uint32_t> symbols(n);
  {
    util::BitReader br(huff_bytes);
    lossless::HuffmanDecoder dec;
    dec.read_table(br);
    for (auto& s : symbols) s = dec.decode(br);
  }

  LinearQuantizer quantizer(info.abs_error_bound, info.quant_bins);
  std::vector<float> out(n);
  float prev1 = 0.0f, prev2 = 0.0f;
  std::size_t fit_idx = 0, unpred_idx = 0;
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t lo = b * block_size;
    const std::size_t hi = std::min(n, lo + static_cast<std::size_t>(block_size));
    const auto kind = static_cast<PredictorKind>(kinds[b]);
    const LineFit* fit = nullptr;
    if (kind == PredictorKind::kRegression) {
      if (fit_idx >= fits.size()) throw std::runtime_error("sz: missing fit");
      fit = &fits[fit_idx++];
    }
    for (std::size_t i = lo; i < hi; ++i) {
      float pred;
      switch (kind) {
        case PredictorKind::kLorenzo1:
          pred = prev1;
          break;
        case PredictorKind::kLorenzo2:
          pred = 2.0f * prev1 - prev2;
          break;
        case PredictorKind::kRegression:
          pred = fit->a + fit->b * static_cast<float>(i - lo);
          break;
        default:
          throw std::runtime_error("sz: bad predictor kind in stream");
      }
      float recon;
      if (symbols[i] == LinearQuantizer::kUnpredictable) {
        if (unpred_idx >= unpredictable.size()) {
          throw std::runtime_error("sz: missing unpredictable value");
        }
        recon = unpredictable[unpred_idx++];
      } else {
        recon = quantizer.reconstruct(symbols[i], pred);
      }
      out[i] = recon;
      prev2 = prev1;
      prev1 = recon;
    }
  }
  return out;
}

}  // namespace

std::vector<float> decompress(std::span<const std::uint8_t> stream) {
  return guard_corrupt("stream", [&] {
    if (v2::is_v2(stream)) return v2::decompress(stream);
    return decompress_checked(stream);
  });
}

double compression_ratio(std::span<const float> data, const SzParams& params) {
  if (data.empty()) return 1.0;
  auto stream = compress(data, params);
  return static_cast<double>(data.size() * sizeof(float)) /
         static_cast<double>(stream.size());
}

}  // namespace deepsz::sz
