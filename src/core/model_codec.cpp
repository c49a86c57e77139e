#include "core/model_codec.h"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <utility>

#include "codec/registry.h"
#include "core/container_wire.h"
#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/threadpool.h"

namespace deepsz::core {
namespace {

using wire::kFooterMagic;
using wire::kHeaderBytes;
using wire::kMagic;
using wire::kTrailerBytes;
using wire::kVersionCurrent;
using wire::kVersionDelta;
using wire::kVersionLegacy;

/// Float array viewed as its in-memory (little-endian) byte image — the
/// representation all CRC pins of decoded data/bias arrays are taken over.
std::span<const std::uint8_t> float_bytes(std::span<const float> v) {
  return {reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(float)};
}

/// Runs fn(i) for i in [0, n), across the global pool when requested.
/// Exceptions are captured per task and the first one rethrown, since
/// ThreadPool tasks must not throw. Codec work inside fn may itself
/// parallel_for over stream-v2 chunks; nested loops run inline on pool
/// workers, so layer- and chunk-level parallelism compose without
/// oversubscription.
template <typename Fn>
void for_each_layer(std::size_t n, bool parallel, Fn&& fn) {
  if (!parallel || n < 2 || util::ThreadPool::global().size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::exception_ptr> errors(n);
  util::parallel_for(0, n, [&](std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::string predictor_option(sz::PredictorMode mode) {
  switch (mode) {
    case sz::PredictorMode::kAdaptive: return "adaptive";
    case sz::PredictorMode::kLorenzo1Only: return "lorenzo1";
    case sz::PredictorMode::kLorenzo2Only: return "lorenzo2";
    case sz::PredictorMode::kRegressionOnly: return "regression";
  }
  return "adaptive";
}

std::string mode_option(sz::ErrorBoundMode mode) {
  switch (mode) {
    case sz::ErrorBoundMode::kAbs: return "abs";
    case sz::ErrorBoundMode::kRel: return "rel";
    case sz::ErrorBoundMode::kPsnr: return "psnr";
  }
  return "abs";
}

}  // namespace

std::size_t EncodedModel::dense_bytes() const {
  std::size_t total = 0;
  for (const auto& s : stats) total += s.dense_bytes;
  return total;
}

std::size_t EncodedModel::compressed_payload_bytes() const {
  std::size_t total = 0;
  for (const auto& s : stats) total += s.total_bytes();
  return total;
}

double EncodedModel::compression_ratio() const {
  const std::size_t payload = compressed_payload_bytes();
  return payload ? static_cast<double>(dense_bytes()) / payload : 0.0;
}

EncodedModel encode_model(const std::vector<sparse::PrunedLayer>& layers,
                          const std::map<std::string, double>& eb_per_layer,
                          const ContainerOptions& options,
                          const std::map<std::string, std::vector<float>>&
                              biases) {
  auto& registry = codec::CodecRegistry::instance();
  auto data_codec = registry.make_float(options.data_codec);
  auto index_codec = registry.make_byte(options.index_codec);

  const std::size_t n = layers.size();
  struct LayerStreams {
    double eb = 0.0;
    std::vector<std::uint8_t> data;
    std::vector<std::uint8_t> index;
  };
  std::vector<LayerStreams> streams(n);

  for_each_layer(n, options.parallel, [&](std::size_t i) {
    const auto& layer = layers[i];
    auto it = eb_per_layer.find(layer.name);
    auto& s = streams[i];
    s.eb = it != eb_per_layer.end() ? it->second : options.default_eb;
    s.data = data_codec->encode(layer.data, codec::FloatParams{s.eb});
    s.index = index_codec->encode(layer.index);
  });

  EncodedModel model;
  auto& out = model.bytes;
  util::put_le<std::uint32_t>(out, kMagic);
  util::put_le<std::uint32_t>(out, kVersionCurrent);
  util::put_le<std::uint32_t>(out, static_cast<std::uint32_t>(n));

  std::vector<ContainerEntry> directory(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& layer = layers[i];
    const auto& s = streams[i];

    EncodedLayerStats stats;
    stats.layer = layer.name;
    stats.eb = s.eb;
    stats.data_codec = options.data_codec;
    stats.index_codec = options.index_codec;
    stats.dense_bytes = layer.dense_bytes();
    stats.csr_bytes = layer.csr_bytes();
    stats.data_bytes = s.data.size();
    stats.index_bytes = s.index.size();
    model.stats.push_back(stats);

    auto& entry = directory[i];
    entry.name = layer.name;
    entry.rows = layer.rows;
    entry.cols = layer.cols;
    entry.eb = s.eb;
    entry.data.codec = options.data_codec;
    entry.index.codec = options.index_codec;

    const std::uint32_t data_crc = util::crc32(s.data);
    const std::uint32_t index_crc = util::crc32(s.index);
    util::put_string(out, layer.name);
    util::put_le<std::int64_t>(out, layer.rows);
    util::put_le<std::int64_t>(out, layer.cols);
    util::put_le<double>(out, s.eb);
    util::put_string(out, options.data_codec);
    util::put_le<std::uint64_t>(out, s.data.size());
    util::put_le<std::uint32_t>(out, data_crc);
    entry.data.offset = out.size();
    entry.data.length = s.data.size();
    entry.data.crc = data_crc;
    util::put_bytes(out, s.data);
    util::put_string(out, options.index_codec);
    util::put_le<std::uint64_t>(out, s.index.size());
    util::put_le<std::uint32_t>(out, index_crc);
    entry.index.offset = out.size();
    entry.index.length = s.index.size();
    entry.index.crc = index_crc;
    util::put_bytes(out, s.index);

    auto bias_it = biases.find(layer.name);
    const std::uint64_t bias_count =
        bias_it != biases.end() ? bias_it->second.size() : 0;
    util::put_le<std::uint64_t>(out, bias_count);
    entry.bias_count = bias_count;
    entry.bias_offset = bias_count > 0 ? out.size() : 0;
    if (bias_count > 0) {
      for (float b : bias_it->second) util::put_le<float>(out, b);
    }
  }

  wire::put_footer(out, directory, kVersionCurrent);
  return model;
}

std::string sz_codec_spec(const sz::SzParams& params) {
  const sz::SzParams defaults;
  std::string spec = "sz:quant_bins=" + std::to_string(params.quant_bins) +
                     ",block_size=" + std::to_string(params.block_size) +
                     ",predictor=" + predictor_option(params.predictor) +
                     ",backend=" + lossless::codec_name(params.backend);
  // Named only off their defaults, so a default template keeps its spec
  // string and the containers recording it keep their bytes.
  if (params.mode != defaults.mode) {
    spec += ",mode=" + mode_option(params.mode);
  }
  if (params.chunk_size != defaults.chunk_size) {
    spec += ",chunk_size=" + std::to_string(params.chunk_size);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// ContainerReader
// ---------------------------------------------------------------------------

ContainerReader::ContainerReader(std::span<const std::uint8_t> bytes,
                                 DirectorySource source)
    : bytes_(bytes) {
  std::uint32_t n_layers = 0;
  try {
    util::ByteReader r(bytes_);
    if (r.get<std::uint32_t>() != kMagic) {
      throw std::runtime_error("ContainerReader: bad magic");
    }
    version_ = r.get<std::uint32_t>();
    if (version_ != kVersionLegacy && version_ != kVersionCurrent &&
        version_ != kVersionDelta) {
      throw std::runtime_error("ContainerReader: unsupported version " +
                               std::to_string(version_));
    }
    n_layers = r.get<std::uint32_t>();
    if (version_ == kVersionDelta) {
      base_id_ = r.get_string();
      base_crc_ = r.get<std::uint32_t>();
      if (base_id_.empty()) {
        throw std::runtime_error(
            "ContainerReader: delta container with empty base_id");
      }
    }
    header_bytes_ = r.pos();
  } catch (const std::out_of_range&) {
    throw std::runtime_error("ContainerReader: truncated container");
  }

  // Probe for the footer trailer. When the trailer magic is present the
  // footer MUST be intact: a mangled footer is corruption, not a reason to
  // silently fall back to scanning.
  std::size_t payload_end = bytes_.size();
  std::size_t body_start = 0;
  std::size_t body_len = 0;
  bool footer_present = false;
  if (bytes_.size() >= kHeaderBytes + kTrailerBytes) {
    util::ByteReader t(bytes_.subspan(bytes_.size() - kTrailerBytes));
    const auto body_crc = t.get<std::uint32_t>();
    const auto len = static_cast<std::size_t>(t.get<std::uint64_t>());
    if (t.get<std::uint32_t>() == kFooterMagic) {
      if (len > bytes_.size() - kHeaderBytes - kTrailerBytes) {
        throw std::runtime_error(
            "ContainerReader: footer length exceeds container");
      }
      body_len = len;
      body_start = bytes_.size() - kTrailerBytes - body_len;
      if (util::crc32(bytes_.subspan(body_start, body_len)) != body_crc) {
        throw std::runtime_error("ContainerReader: footer checksum mismatch");
      }
      payload_end = body_start;
      footer_present = true;
    }
  }

  if (footer_present && source == DirectorySource::kAuto) {
    parse_footer(body_start, body_len, n_layers);
    has_footer_ = true;
  } else {
    scan_records(n_layers, payload_end);
  }
  validate_entries(payload_end);
}

void ContainerReader::parse_footer(std::size_t body_start,
                                   std::size_t body_len,
                                   std::uint32_t n_layers) {
  try {
    util::ByteReader r(bytes_.subspan(body_start, body_len));
    const auto count = r.get<std::uint32_t>();
    if (count != n_layers) {
      throw std::runtime_error(
          "ContainerReader: footer index count mismatch (header " +
          std::to_string(n_layers) + ", footer " + std::to_string(count) +
          ")");
    }
    // Each entry is > 96 fixed bytes even with empty strings; an implausible
    // count must be rejected before any allocation sized by it.
    if (count > body_len / 96) {
      throw std::runtime_error("ContainerReader: implausible footer count");
    }
    entries_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      ContainerEntry e;
      e.name = r.get_string();
      e.rows = r.get<std::int64_t>();
      e.cols = r.get<std::int64_t>();
      e.eb = r.get<double>();
      e.data.codec = r.get_string();
      e.data.offset = r.get<std::uint64_t>();
      e.data.length = r.get<std::uint64_t>();
      e.data.crc = r.get<std::uint32_t>();
      e.index.codec = r.get_string();
      e.index.offset = r.get<std::uint64_t>();
      e.index.length = r.get<std::uint64_t>();
      e.index.crc = r.get<std::uint32_t>();
      e.bias_offset = r.get<std::uint64_t>();
      e.bias_count = r.get<std::uint64_t>();
      if (version_ == kVersionDelta) {
        const auto kind = r.get<std::uint8_t>();
        const auto mask = r.get<std::uint8_t>();
        if (kind > 2 || mask > 2) {
          throw std::runtime_error("ContainerReader: bad layer kind in " +
                                   e.name);
        }
        e.kind = static_cast<LayerKind>(kind);
        e.mask_mode = static_cast<MaskMode>(mask);
        e.corr.codec = r.get_string();
        e.corr.offset = r.get<std::uint64_t>();
        e.corr.length = r.get<std::uint64_t>();
        e.corr.crc = r.get<std::uint32_t>();
        e.base_data_crc = r.get<std::uint32_t>();
        e.base_index_crc = r.get<std::uint32_t>();
        e.base_bias_crc = r.get<std::uint32_t>();
        e.recon_data_crc = r.get<std::uint32_t>();
        e.recon_index_crc = r.get<std::uint32_t>();
      }
      entries_.push_back(std::move(e));
    }
    if (!r.done()) {
      throw std::runtime_error("ContainerReader: footer has trailing bytes");
    }
  } catch (const std::out_of_range&) {
    throw std::runtime_error("ContainerReader: truncated footer index");
  }
}

void ContainerReader::scan_records(std::uint32_t n_layers,
                                   std::size_t payload_end) {
  // Reads one codec-spec'd stream header + payload extent into `ref`.
  auto scan_stream = [](util::ByteReader& r, StreamRef& ref) {
    ref.codec = r.get_string();
    ref.length = r.get<std::uint64_t>();
    ref.crc = r.get<std::uint32_t>();
    ref.offset = r.pos();
    r.get_bytes(static_cast<std::size_t>(ref.length));
  };
  auto scan_bias = [](util::ByteReader& r, ContainerEntry& e) {
    e.bias_count = r.get<std::uint64_t>();
    if (e.bias_count > r.remaining() / sizeof(float)) {
      throw std::runtime_error("ContainerReader: corrupt bias count in " +
                               e.name);
    }
    e.bias_offset = e.bias_count > 0 ? r.pos() : 0;
    r.get_bytes(static_cast<std::size_t>(e.bias_count) * sizeof(float));
  };
  try {
    util::ByteReader r(bytes_.first(payload_end));
    r.get_bytes(header_bytes_);  // already validated by the constructor
    for (std::uint32_t l = 0; l < n_layers; ++l) {
      ContainerEntry e;
      if (version_ == kVersionDelta) {
        const auto kind = r.get<std::uint8_t>();
        if (kind > 2) {
          throw std::runtime_error("ContainerReader: bad layer kind tag");
        }
        e.kind = static_cast<LayerKind>(kind);
      }
      e.name = r.get_string();
      e.rows = r.get<std::int64_t>();
      e.cols = r.get<std::int64_t>();
      switch (e.kind) {
        case LayerKind::kFull:
          e.eb = r.get<double>();
          if (version_ != kVersionLegacy) {
            scan_stream(r, e.data);
            scan_stream(r, e.index);
          } else {
            e.data.length = r.get<std::uint64_t>();
            e.data.crc = r.get<std::uint32_t>();
            e.data.offset = r.pos();
            r.get_bytes(static_cast<std::size_t>(e.data.length));
            e.index.length = r.get<std::uint64_t>();
            e.index.crc = r.get<std::uint32_t>();
            e.index.offset = r.pos();
            r.get_bytes(static_cast<std::size_t>(e.index.length));
          }
          scan_bias(r, e);
          break;
        case LayerKind::kSame:
          e.base_data_crc = r.get<std::uint32_t>();
          e.base_index_crc = r.get<std::uint32_t>();
          e.base_bias_crc = r.get<std::uint32_t>();
          break;
        case LayerKind::kDelta: {
          e.eb = r.get<double>();
          const auto mask = r.get<std::uint8_t>();
          if (mask > 2) {
            throw std::runtime_error("ContainerReader: bad mask mode in " +
                                     e.name);
          }
          e.mask_mode = static_cast<MaskMode>(mask);
          scan_stream(r, e.data);  // residual
          scan_stream(r, e.corr);  // bit corrections
          if (e.mask_mode != MaskMode::kSameAsBase) scan_stream(r, e.index);
          e.base_data_crc = r.get<std::uint32_t>();
          e.base_index_crc = r.get<std::uint32_t>();
          e.recon_data_crc = r.get<std::uint32_t>();
          e.recon_index_crc = r.get<std::uint32_t>();
          scan_bias(r, e);
          break;
        }
      }
      entries_.push_back(std::move(e));
    }
    // Only our own encoder emits these files, and it writes nothing between
    // the last record and the footer: leftover bytes mean a truncated or
    // corrupted footer whose trailer magic no longer matches.
    if (!r.done()) {
      throw std::runtime_error(
          "ContainerReader: trailing bytes after layer records");
    }
  } catch (const std::out_of_range&) {
    throw std::runtime_error("ContainerReader: truncated container");
  }
}

void ContainerReader::validate_entries(std::size_t payload_end) {
  // (offset, end, what) extents; every stream and bias must lie inside the
  // record payload area and no two may overlap.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> extents;
  auto add_extent = [&](const std::string& name, std::uint64_t offset,
                        std::uint64_t length) {
    if (length == 0) return;
    if (offset < kHeaderBytes || length > payload_end ||
        offset > payload_end - length) {
      throw std::runtime_error(
          "ContainerReader: stream extent out of range in " + name);
    }
    extents.emplace_back(offset, offset + length);
  };
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& e = entries_[i];
    if (!by_name_.emplace(e.name, i).second) {
      throw std::runtime_error("ContainerReader: duplicate layer name " +
                               e.name);
    }
    if (e.rows < 0 || e.cols < 0) {
      throw std::runtime_error("ContainerReader: negative shape in " + e.name);
    }
    if (version_ != kVersionDelta && e.kind != LayerKind::kFull) {
      throw std::runtime_error("ContainerReader: delta record in a non-delta "
                               "container: " + e.name);
    }
    if (e.kind == LayerKind::kSame &&
        (e.data.length != 0 || e.index.length != 0 || e.corr.length != 0 ||
         e.bias_count != 0)) {
      throw std::runtime_error(
          "ContainerReader: same-layer record carries stream bytes in " +
          e.name);
    }
    if (e.kind == LayerKind::kFull && e.corr.length != 0) {
      throw std::runtime_error(
          "ContainerReader: full record with a correction stream in " +
          e.name);
    }
    if (e.kind == LayerKind::kDelta &&
        e.mask_mode == MaskMode::kSameAsBase && e.index.length != 0) {
      throw std::runtime_error(
          "ContainerReader: same-mask delta record carries an index stream "
          "in " + e.name);
    }
    add_extent(e.name, e.data.offset, e.data.length);
    add_extent(e.name, e.index.offset, e.index.length);
    add_extent(e.name, e.corr.offset, e.corr.length);
    // Guard the multiplication: a count near 2^62 would wrap to a small
    // (even zero) byte extent and sail through the range check.
    if (e.bias_count > payload_end / sizeof(float)) {
      throw std::runtime_error(
          "ContainerReader: stream extent out of range in " + e.name);
    }
    add_extent(e.name, e.bias_offset, e.bias_count * sizeof(float));
  }
  std::sort(extents.begin(), extents.end());
  for (std::size_t i = 1; i < extents.size(); ++i) {
    if (extents[i].first < extents[i - 1].second) {
      throw std::runtime_error(
          "ContainerReader: overlapping stream extents in footer index");
    }
  }
}

const ContainerEntry& ContainerReader::entry(const std::string& name) const {
  return entries_[index_of(name)];
}

std::size_t ContainerReader::index_of(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    throw std::out_of_range("ContainerReader: no layer named " + name);
  }
  return it->second;
}

bool ContainerReader::contains(const std::string& name) const {
  return by_name_.count(name) != 0;
}

std::size_t ContainerReader::payload_bytes() const {
  std::size_t total = 0;
  for (const auto& e : entries_) total += e.payload_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// Delta-container surface
// ---------------------------------------------------------------------------

bool ContainerReader::is_delta() const { return version_ == kVersionDelta; }

std::uint32_t ContainerReader::container_crc() const {
  return util::crc32(bytes_);
}

void ContainerReader::set_base(std::shared_ptr<const ContainerReader> base) {
  if (!is_delta()) {
    throw std::runtime_error(
        "ContainerReader: set_base on a non-delta container");
  }
  if (!base) {
    throw std::runtime_error("ContainerReader: null base container");
  }
  if (base->container_crc() != base_crc_) {
    throw std::runtime_error(
        "ContainerReader: base container CRC mismatch for base_id \"" +
        base_id_ + "\" (wrong, stale, or tampered base)");
  }
  if (base->is_delta() && base->base_ == nullptr) {
    throw std::runtime_error(
        "ContainerReader: base delta chain is unresolved");
  }
  const int depth = base->depth_ + 1;
  if (depth > kMaxChainDepth) {
    throw std::runtime_error("ContainerReader: delta chain deeper than " +
                             std::to_string(kMaxChainDepth));
  }
  base_ = std::move(base);
  depth_ = depth;
}

const ContainerReader& ContainerReader::require_base(
    const std::string& layer) const {
  if (!base_) {
    throw std::runtime_error("ContainerReader: layer " + layer +
                             " needs base container \"" + base_id_ +
                             "\" but none is attached");
  }
  if (!base_->contains(layer)) {
    throw std::runtime_error("ContainerReader: layer " + layer +
                             " is missing from base container \"" + base_id_ +
                             "\"");
  }
  return *base_;
}

sparse::PrunedLayer ContainerReader::apply_delta(
    std::size_t i, const sparse::PrunedLayer& base_layer) const {
  const auto& e = entries_.at(i);
  if (e.kind != LayerKind::kDelta) {
    throw std::runtime_error("ContainerReader: apply_delta on a non-delta "
                             "record: " + e.name);
  }
  if (util::crc32(float_bytes(base_layer.data)) != e.base_data_crc ||
      util::crc32(base_layer.index) != e.base_index_crc) {
    throw std::runtime_error(
        "ContainerReader: base layer checksum mismatch in " + e.name +
        " (delta applied to the wrong base)");
  }

  const auto residual_stream = checked_span(e.data, e.name);
  const auto corr_stream = checked_span(e.corr, e.name);

  DecodePhaseSpan lossless("lossless", e.name);
  auto corr =
      byte_codec(e.corr.codec.empty() ? "store" : e.corr.codec)
          ->decode(corr_stream);
  std::vector<std::uint8_t> index;
  switch (e.mask_mode) {
    case MaskMode::kSameAsBase:
      index = base_layer.index;
      break;
    case MaskMode::kXorDelta: {
      auto mask =
          byte_codec(e.index.codec.empty() ? "store" : e.index.codec)
              ->decode(checked_span(e.index, e.name));
      if (mask.size() != base_layer.index.size()) {
        throw std::runtime_error(
            "ContainerReader: mask delta length mismatch in " + e.name);
      }
      index = base_layer.index;
      for (std::size_t k = 0; k < index.size(); ++k) index[k] ^= mask[k];
      break;
    }
    case MaskMode::kFullIndex:
      index = byte_codec(e.index.codec.empty() ? "store" : e.index.codec)
                  ->decode(checked_span(e.index, e.name));
      break;
  }
  lossless.close();

  DecodePhaseSpan eb_decode("eb_decode", e.name);
  auto residual = float_codec(e.data.codec.empty() ? "sz" : e.data.codec)
                      ->decode(residual_stream);
  eb_decode.close();

  if (corr.size() != residual.size() * sizeof(float)) {
    throw std::runtime_error(
        "ContainerReader: correction stream length mismatch in " + e.name);
  }
  if (residual.size() != index.size()) {
    throw std::runtime_error("ContainerReader: data/index mismatch in " +
                             e.name);
  }

  // data = (base + residual), then the XOR correction restores the target's
  // exact bit pattern regardless of what the lossy residual codec did.
  DecodePhaseSpan reconstruct("reconstruct", e.name);
  sparse::PrunedLayer layer;
  layer.name = e.name;
  layer.rows = e.rows;
  layer.cols = e.cols;
  layer.data.resize(residual.size());
  const std::size_t base_n = base_layer.data.size();
  for (std::size_t k = 0; k < residual.size(); ++k) {
    const float b = k < base_n ? base_layer.data[k] : 0.0f;
    layer.data[k] = b + residual[k];
  }
  auto* data_bytes = reinterpret_cast<std::uint8_t*>(layer.data.data());
  for (std::size_t k = 0; k < corr.size(); ++k) data_bytes[k] ^= corr[k];
  layer.index = std::move(index);

  if (util::crc32(float_bytes(layer.data)) != e.recon_data_crc ||
      util::crc32(layer.index) != e.recon_index_crc) {
    throw std::runtime_error(
        "ContainerReader: reconstruction checksum mismatch in " + e.name +
        " (corrupt or forged delta streams)");
  }
  return layer;
}

std::shared_ptr<codec::FloatCodec> ContainerReader::float_codec(
    const std::string& spec) const {
  util::MutexLock lock(codec_mu_);
  auto it = float_codecs_.find(spec);
  if (it != float_codecs_.end()) return it->second;
  try {
    auto c = codec::CodecRegistry::instance().make_float(spec);
    float_codecs_[spec] = c;
    return c;
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        std::string(
            "ContainerReader: unresolvable codec spec in container (") +
        e.what() + ")");
  }
}

std::shared_ptr<codec::ByteCodec> ContainerReader::byte_codec(
    const std::string& spec) const {
  util::MutexLock lock(codec_mu_);
  auto it = byte_codecs_.find(spec);
  if (it != byte_codecs_.end()) return it->second;
  try {
    auto c = codec::CodecRegistry::instance().make_byte(spec);
    byte_codecs_[spec] = c;
    return c;
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(
        std::string(
            "ContainerReader: unresolvable codec spec in container (") +
        e.what() + ")");
  }
}

std::span<const std::uint8_t> ContainerReader::checked_span(
    const StreamRef& ref, const std::string& name) const {
  const auto stream = bytes_.subspan(static_cast<std::size_t>(ref.offset),
                                     static_cast<std::size_t>(ref.length));
  if (util::crc32(stream) != ref.crc) {
    throw std::runtime_error("ContainerReader: checksum mismatch in " + name);
  }
  return stream;
}

sparse::PrunedLayer ContainerReader::decode_layer(std::size_t i) const {
  return decode_layer_impl(i, kMaxChainDepth);
}

sparse::PrunedLayer ContainerReader::decode_layer_impl(std::size_t i,
                                                       int depth_budget) const {
  const auto& e = entries_.at(i);
  if (e.kind != LayerKind::kFull && depth_budget <= 0) {
    throw std::runtime_error("ContainerReader: delta chain deeper than " +
                             std::to_string(kMaxChainDepth));
  }
  if (e.kind == LayerKind::kSame) {
    const auto& base = require_base(e.name);
    auto layer =
        base.decode_layer_impl(base.index_of(e.name), depth_budget - 1);
    if (layer.rows != e.rows || layer.cols != e.cols ||
        util::crc32(float_bytes(layer.data)) != e.base_data_crc ||
        util::crc32(layer.index) != e.base_index_crc) {
      throw std::runtime_error(
          "ContainerReader: base layer checksum mismatch in " + e.name +
          " (same-layer reference resolved against the wrong base)");
    }
    return layer;
  }
  if (e.kind == LayerKind::kDelta) {
    const auto& base = require_base(e.name);
    auto base_layer =
        base.decode_layer_impl(base.index_of(e.name), depth_budget - 1);
    return apply_delta(i, base_layer);
  }

  const auto data_stream = checked_span(e.data, e.name);
  const auto index_stream = checked_span(e.index, e.name);

  sparse::PrunedLayer layer;
  layer.name = e.name;
  layer.rows = e.rows;
  layer.cols = e.cols;

  // Legacy containers carry no codec specs; their data streams are implicit
  // SZ and their index frames self-describing, which "store" decodes.
  {
    DecodePhaseSpan lossless("lossless", e.name);
    layer.index = byte_codec(e.index.codec.empty() ? "store" : e.index.codec)
                      ->decode(index_stream);
  }
  {
    DecodePhaseSpan eb_decode("eb_decode", e.name);
    layer.data = float_codec(e.data.codec.empty() ? "sz" : e.data.codec)
                     ->decode(data_stream);
  }

  if (layer.data.size() != layer.index.size()) {
    throw std::runtime_error("ContainerReader: data/index mismatch in " +
                             e.name);
  }
  return layer;
}

sparse::PrunedLayer ContainerReader::decode_layer(
    const std::string& name) const {
  return decode_layer(index_of(name));
}

std::vector<std::uint8_t> ContainerReader::decode_index_stream(
    std::size_t i) const {
  const auto& e = entries_.at(i);
  if (e.kind != LayerKind::kFull) {
    throw std::runtime_error(
        "ContainerReader: decode_index_stream on a delta record: " + e.name);
  }
  const auto index_stream = checked_span(e.index, e.name);
  DecodePhaseSpan lossless("lossless", e.name);
  return byte_codec(e.index.codec.empty() ? "store" : e.index.codec)
      ->decode(index_stream);
}

std::span<const std::uint8_t> ContainerReader::checked_data_stream(
    std::size_t i) const {
  const auto& e = entries_.at(i);
  if (e.kind != LayerKind::kFull) {
    throw std::runtime_error(
        "ContainerReader: checked_data_stream on a delta record: " + e.name);
  }
  return checked_span(e.data, e.name);
}

std::vector<float> ContainerReader::decode_bias(std::size_t i) const {
  return decode_bias_impl(i, kMaxChainDepth);
}

std::vector<float> ContainerReader::decode_bias_impl(std::size_t i,
                                                     int depth_budget) const {
  const auto& e = entries_.at(i);
  if (e.kind == LayerKind::kSame) {
    if (depth_budget <= 0) {
      throw std::runtime_error("ContainerReader: delta chain deeper than " +
                               std::to_string(kMaxChainDepth));
    }
    const auto& base = require_base(e.name);
    auto bias =
        base.decode_bias_impl(base.index_of(e.name), depth_budget - 1);
    if (util::crc32(float_bytes(bias)) != e.base_bias_crc) {
      throw std::runtime_error(
          "ContainerReader: base bias checksum mismatch in " + e.name);
    }
    return bias;
  }
  std::vector<float> bias(static_cast<std::size_t>(e.bias_count));
  if (!bias.empty()) {
    std::memcpy(bias.data(),
                bytes_.data() + static_cast<std::size_t>(e.bias_offset),
                bias.size() * sizeof(float));
  }
  return bias;
}

std::vector<float> ContainerReader::decode_bias(const std::string& name) const {
  return decode_bias(index_of(name));
}

// ---------------------------------------------------------------------------
// Full decode
// ---------------------------------------------------------------------------

DecodedModel decode_model(std::span<const std::uint8_t> bytes, bool parallel) {
  // A full decode walks every record (not the footer), so corruption in any
  // record header — not just in stream payloads — is detected.
  ContainerReader reader(bytes, ContainerReader::DirectorySource::kScanRecords);

  DecodedModel model;
  const std::size_t n = reader.num_layers();
  model.layers.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = reader.entry(i);
    // kSame layers have bias_count 0 but may forward a bias from the base.
    if (e.bias_count > 0 || e.kind == LayerKind::kSame) {
      auto bias = reader.decode_bias(i);
      if (!bias.empty()) model.biases[e.name] = std::move(bias);
    }
  }

  for_each_layer(n, parallel, [&](std::size_t i) {
    model.layers[i] = reader.decode_layer(i);
  });
  return model;
}

}  // namespace deepsz::core
