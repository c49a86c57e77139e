// Builtin codec backends: adapters re-homing the existing SZ, ZFP and
// lossless implementations behind the ByteCodec/FloatCodec interfaces. The
// legacy free functions (sz::compress, zfp::compress, lossless::compress)
// remain as the implementation layer these adapters call into.
#include <cstring>

#include "codec/registry.h"
#include "lossless/codec.h"
#include "lossless/entropy.h"
#include "sz/sz.h"
#include "util/byte_io.h"
#include "zfp/zfp1d.h"

namespace deepsz::codec {
namespace {

// ----------------------------------------------------------------- lossless

lossless::CodecId byte_codec_id(const std::string& name) {
  if (name == "store") return lossless::CodecId::kStore;
  if (name == "gzip") return lossless::CodecId::kGzipLike;
  if (name == "zstd") return lossless::CodecId::kZstdLike;
  if (name == "blosc") return lossless::CodecId::kBloscLike;
  throw UnknownCodec("unknown lossless codec \"" + name + "\"");
}

/// store/gzip/zstd: fixed behaviour, no options.
class LosslessCodec : public ByteCodec {
 public:
  LosslessCodec(std::string name, const Options& opts)
      : name_(std::move(name)), id_(byte_codec_id(name_)) {
    opts.check_known({});
  }

  std::string name() const override { return name_; }

  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    return lossless::compress(id_, data);
  }

  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    return lossless::decompress(frame);
  }

 private:
  std::string name_;
  lossless::CodecId id_;
};

/// blosc: byte shuffle + fast byte codec, with layout options.
class BloscCodec : public ByteCodec {
 public:
  explicit BloscCodec(const Options& opts) {
    opts.check_known({"typesize", "block_size"});
    opts_.typesize = static_cast<std::uint32_t>(
        opts.get_u64("typesize", lossless::BloscOptions{}.typesize));
    opts_.block_size = static_cast<std::uint32_t>(
        opts.get_u64("block_size", lossless::BloscOptions{}.block_size));
    if (opts_.typesize == 0 || opts_.block_size == 0) {
      throw BadOptions("blosc: typesize and block_size must be positive");
    }
  }

  std::string name() const override { return "blosc"; }

  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    return lossless::compress_blosc(data, opts_);
  }

  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    return lossless::decompress(frame);
  }

 private:
  lossless::BloscOptions opts_;
};

/// huffman: order-0 canonical Huffman over bytes. No match finding — the
/// entropy-only coder Deep Compression applies to its position deltas; also
/// a useful lower bound when benchmarking the LZ-based codecs.
class HuffmanCodec : public ByteCodec {
 public:
  explicit HuffmanCodec(const Options& opts) { opts.check_known({}); }

  std::string name() const override { return "huffman"; }

  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    std::vector<std::uint8_t> out;
    util::put_le<std::uint32_t>(out, kHuffMagic);
    util::put_le<std::uint64_t>(out, data.size());
    if (data.empty()) return out;

    std::vector<std::uint32_t> symbols(data.begin(), data.end());
    util::put_bytes(out, lossless::huffman_encode_symbols(symbols, 256));
    return out;
  }

  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    util::ByteReader r(frame);
    if (r.get<std::uint32_t>() != kHuffMagic) {
      throw std::runtime_error("huffman decode: bad magic");
    }
    const auto count = r.get<std::uint64_t>();
    if (count == 0) return {};
    // >= 1 bit per symbol bounds any plausible count by the frame size.
    if (count > 8 * frame.size()) {
      throw std::runtime_error("huffman decode: implausible symbol count");
    }
    // max_alphabet = 256 also bounds every decoded symbol to a byte.
    auto symbols = lossless::huffman_decode_symbols(
        r.get_bytes(r.remaining()), static_cast<std::size_t>(count), 256);
    return std::vector<std::uint8_t>(symbols.begin(), symbols.end());
  }

 private:
  static constexpr std::uint32_t kHuffMagic = 0x30465548;  // "HUF0"
};

// ----------------------------------------------------------------------- sz

sz::ErrorBoundMode sz_mode(const std::string& s) {
  if (s == "abs") return sz::ErrorBoundMode::kAbs;
  if (s == "rel") return sz::ErrorBoundMode::kRel;
  if (s == "psnr") return sz::ErrorBoundMode::kPsnr;
  throw BadOptions("sz: mode must be abs|rel|psnr, got \"" + s + "\"");
}

sz::PredictorMode sz_predictor(const std::string& s) {
  if (s == "adaptive") return sz::PredictorMode::kAdaptive;
  if (s == "lorenzo1") return sz::PredictorMode::kLorenzo1Only;
  if (s == "lorenzo2") return sz::PredictorMode::kLorenzo2Only;
  if (s == "regression") return sz::PredictorMode::kRegressionOnly;
  throw BadOptions(
      "sz: predictor must be adaptive|lorenzo1|lorenzo2|regression, got \"" +
      s + "\"");
}

/// "stream=1" names the read-only v1 layout: containers on disk record
/// "sz:stream=1" specs, so the spec must keep resolving for decode, but
/// encoding it is refused — sz::compress writes stream v2 only.
class SzCodec : public FloatCodec {
 public:
  explicit SzCodec(const Options& opts) {
    opts.check_known({"mode", "quant_bins", "block_size", "predictor",
                      "backend", "stream", "chunk_size"});
    params_.mode = sz_mode(opts.get("mode", "abs"));
    params_.quant_bins = static_cast<std::uint32_t>(
        opts.get_u64("quant_bins", sz::SzParams{}.quant_bins));
    params_.block_size = static_cast<std::uint32_t>(
        opts.get_u64("block_size", sz::SzParams{}.block_size));
    params_.predictor = sz_predictor(opts.get("predictor", "adaptive"));
    params_.backend = byte_codec_id(opts.get("backend", "zstd"));
    const std::uint64_t stream = opts.get_u64("stream", 2);
    if (stream != 1 && stream != 2) {
      throw BadOptions("sz: stream must be 1 or 2");
    }
    read_only_v1_ = stream == 1;
    params_.chunk_size = static_cast<std::uint32_t>(
        opts.get_u64("chunk_size", sz::SzParams{}.chunk_size));
    if (params_.chunk_size < 16) {
      throw BadOptions("sz: chunk_size must be >= 16");
    }
  }

  std::string name() const override { return "sz"; }

  std::vector<std::uint8_t> encode(std::span<const float> data,
                                   const FloatParams& p) const override {
    if (read_only_v1_) {
      throw BadOptions("sz: stream v1 is read-only; encode with stream=2");
    }
    sz::SzParams params = params_;
    params.error_bound = p.tolerance;
    return sz::compress(data, params);
  }

  std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    return sz::decompress(stream);
  }

 private:
  sz::SzParams params_;
  bool read_only_v1_ = false;
};

/// f32: verbatim little-endian fp32 floats. The lossless end of the
/// FloatCodec family — the "store" strategy's data stream, and the exact
/// reference when measuring what a lossy codec bought.
class F32Codec : public FloatCodec {
 public:
  explicit F32Codec(const Options& opts) { opts.check_known({}); }

  std::string name() const override { return "f32"; }

  std::vector<std::uint8_t> encode(std::span<const float> data,
                                   const FloatParams&) const override {
    std::vector<std::uint8_t> out(data.size() * sizeof(float));
    if (!data.empty()) std::memcpy(out.data(), data.data(), out.size());
    return out;
  }

  std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    if (stream.size() % sizeof(float) != 0) {
      throw std::runtime_error("f32 decode: size not a multiple of 4");
    }
    std::vector<float> out(stream.size() / sizeof(float));
    if (!out.empty()) std::memcpy(out.data(), stream.data(), stream.size());
    return out;
  }
};

/// zero: frames only the element count; decodes to exact 0.0f zeros. The
/// degenerate end of the FloatCodec family — used by the delta encoder when
/// the XOR correction stream alone carries a layer's change more cheaply
/// than an error-bounded residual stream (a gentle fine-tune leaves most
/// residuals exactly zero, and any lossy decode smears non-zero noise that
/// inflates the corrections).
class ZeroCodec : public FloatCodec {
 public:
  explicit ZeroCodec(const Options& opts) { opts.check_known({}); }

  std::string name() const override { return "zero"; }

  std::vector<std::uint8_t> encode(std::span<const float> data,
                                   const FloatParams&) const override {
    std::vector<std::uint8_t> out;
    util::put_le<std::uint32_t>(out, kZeroMagic);
    util::put_le<std::uint64_t>(out, data.size());
    // The count's complement doubles as integrity: the count controls the
    // decode allocation, so it must not be forgeable by one flipped byte.
    util::put_le<std::uint64_t>(out, ~static_cast<std::uint64_t>(data.size()));
    return out;
  }

  std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    util::ByteReader r(stream);
    if (r.get<std::uint32_t>() != kZeroMagic) {
      throw std::runtime_error("zero decode: bad magic");
    }
    const auto count = r.get<std::uint64_t>();
    if (r.get<std::uint64_t>() != ~count) {
      throw std::runtime_error("zero decode: corrupt element count");
    }
    return std::vector<float>(static_cast<std::size_t>(count), 0.0f);
  }

 private:
  static constexpr std::uint32_t kZeroMagic = 0x304f525a;  // "ZRO0"
};

// ---------------------------------------------------------------------- zfp

class ZfpCodec : public FloatCodec {
 public:
  explicit ZfpCodec(const Options& opts) { opts.check_known({}); }

  std::string name() const override { return "zfp"; }

  std::vector<std::uint8_t> encode(std::span<const float> data,
                                   const FloatParams& p) const override {
    return zfp::compress(data, p.tolerance);
  }

  std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    return zfp::decompress(stream);
  }
};

}  // namespace

namespace detail {

void register_builtins(CodecRegistry& reg) {
  for (const char* name : {"store", "gzip", "zstd"}) {
    CodecInfo info;
    info.name = name;
    info.summary = name == std::string("store")
                       ? "raw passthrough (no compression)"
                   : name == std::string("gzip")
                       ? "LZ77(32 KB) + DEFLATE-style Huffman"
                       : "LZ77(1 MB) + per-stream Huffman sequences";
    reg.register_byte(info, [n = std::string(name)](const Options& opts) {
      return std::make_shared<LosslessCodec>(n, opts);
    });
  }
  {
    CodecInfo info;
    info.name = "blosc";
    info.summary = "byte shuffle + LZ4-style fast byte codec, blocked";
    info.options_help = "typesize=<bytes>,block_size=<bytes>";
    reg.register_byte(info, [](const Options& opts) {
      return std::make_shared<BloscCodec>(opts);
    });
  }
  {
    CodecInfo info;
    info.name = "huffman";
    info.summary = "order-0 canonical Huffman over bytes (no match finding)";
    reg.register_byte(info, [](const Options& opts) {
      return std::make_shared<HuffmanCodec>(opts);
    });
  }
  {
    CodecInfo info;
    info.name = "f32";
    info.summary = "verbatim fp32 floats (lossless; tolerance ignored)";
    info.stream_versions = "raw";
    reg.register_float(info, [](const Options& opts) {
      return std::make_shared<F32Codec>(opts);
    });
  }
  {
    CodecInfo info;
    info.name = "zero";
    info.summary = "all-zeros placeholder (delta corrections carry the data)";
    info.stream_versions = "raw";
    info.bounded = false;  // tolerance ignored: the caller's correction
                           // stream, not this codec, bounds the error
    reg.register_float(info, [](const Options& opts) {
      return std::make_shared<ZeroCodec>(opts);
    });
  }
  {
    CodecInfo info;
    info.name = "sz";
    info.summary = "SZ-class error-bounded: predict + quantize + Huffman";
    info.stream_versions = "r:v1,v2 w:v2";
    info.options_help =
        "mode=abs|rel|psnr,quant_bins=<n>,block_size=<n>,"
        "predictor=adaptive|lorenzo1|lorenzo2|regression,"
        "backend=store|gzip|zstd|blosc,stream=1|2,chunk_size=<n>";
    reg.register_float(info, [](const Options& opts) {
      return std::make_shared<SzCodec>(opts);
    });
  }
  {
    CodecInfo info;
    info.name = "zfp";
    info.summary = "ZFP-class transform codec, fixed-accuracy mode";
    reg.register_float(info, [](const Options& opts) {
      return std::make_shared<ZfpCodec>(opts);
    });
  }
}

}  // namespace detail
}  // namespace deepsz::codec
