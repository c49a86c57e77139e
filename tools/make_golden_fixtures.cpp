// Regenerates the reproducible golden wire-format fixtures.
//
//   make_golden_fixtures [output-dir]
//
// Writes the fixtures the current encoders can still produce, with fully
// deterministic content, and prints the CRC-32s the golden tests assert:
//
//   sz_v2.szs        a bare SZ stream-v2 payload (chunked, three chunks),
//                    pinning the v2 decode path bit-exactly
//   dc_v3.dszc       two tiny layers Deep-Compression coded ("dc" codebook
//                    data streams + "huffman" index streams), pinning the
//                    compressed-domain (codebook-CSR) decode path
//   ckpt_v1.dszk     a DSZK training checkpoint (fc6 weight/index/bias plus
//                    velocity streams, sz-coded data, zstd lossless),
//                    pinning the checkpoint decode path
//   delta_base_v3.dszc  a version-3 container whose fc6 values are a
//                    deterministic perturbation of the standard fixture
//                    layers (fc7 identical) — the base of delta_v3.dszc
//
// The other four fixtures in tests/fixtures/ are frozen: the committed bytes
// are the reference and nothing regenerates them. legacy_v2.dszc (the
// pre-registry layout) and sz_v1.szs (the monolithic stream) are formats no
// encoder writes any more; indexed_v3.dszc carries sz-v1 data streams in a
// version-3 container, and delta_v3.dszc an sz residual where today's delta
// encoder writes a "zero" one.
//
// Set DEEPSZ_NO_AVX2=1 when regenerating: v2 *encoding* may differ across
// hosts with different SIMD support (decoding never does). CI runs this tool
// and compares every file it writes with the committed one, so any encoder
// drift in these formats fails loudly. Update a committed fixture (and the
// constants in its test) ONLY for a deliberate, versioned format change.
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "serve/model_store.h"
#include "sz/sz.h"
#include "train/checkpoint.h"
#include "util/crc32.h"

using namespace deepsz;

namespace {

std::vector<sparse::PrunedLayer> fixture_layers() {
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc6", 24, 32, 0.25, 1001));
  layers.push_back(data::synthesize_pruned_layer("fc7", 16, 24, 0.30, 1002));
  return layers;
}

std::vector<float> fixture_bias() {
  std::vector<float> bias(24);
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias[i] = 0.01f * static_cast<float>(i) - 0.05f;
  }
  return bias;
}

/// The delta fixture's base: fc6's values deterministically nudged (same
/// sparsity pattern, so the delta record's mask is same-as-base), fc7
/// untouched (so its record is a zero-byte same reference).
std::vector<std::uint8_t> encode_delta_base_v3() {
  auto layers = fixture_layers();
  for (std::size_t i = 0; i < layers[0].data.size(); ++i) {
    layers[0].data[i] +=
        0.0005f * static_cast<float>(static_cast<int>(i % 7) - 3);
  }
  std::map<std::string, double> ebs = {{"fc6", 1e-3}, {"fc7", 5e-4}};
  std::map<std::string, std::vector<float>> biases = {
      {"fc6", fixture_bias()}};
  return core::encode_model(layers, ebs, core::ContainerOptions{}, biases)
      .bytes;
}

std::vector<std::uint8_t> encode_dc_v3() {
  const auto layers = fixture_layers();
  std::map<std::string, std::vector<float>> biases = {
      {"fc6", fixture_bias()}};
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=4,iters=16";
  copts.index_codec = "huffman";
  return core::encode_model(layers, {}, copts, biases).bytes;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
}

std::uint32_t float_crc(const std::vector<float>& v) {
  return util::crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(v.data()),
      v.size() * sizeof(float)));
}

void report(const char* label, const std::vector<std::uint8_t>& bytes) {
  auto decoded = core::decode_model(bytes);
  std::printf("%s: %zu bytes, file crc 0x%08x\n", label, bytes.size(),
              util::crc32(bytes));
  for (const auto& l : decoded.layers) {
    std::printf("  %-4s entries %zu  data crc 0x%08x  index crc 0x%08x\n",
                l.name.c_str(), l.stored_entries(), float_crc(l.data),
                util::crc32(l.index));
  }
}

/// CRC over a ServedLayer's codebook-CSR arrays in a fixed order, the
/// constant codebook_golden_test pins.
std::uint32_t codebook_csr_crc(const serve::ServedLayer& l) {
  std::vector<std::uint8_t> blob;
  auto append = [&blob](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    blob.insert(blob.end(), b, b + n);
  };
  append(l.csr_rowptr.data(), l.csr_rowptr.size() * sizeof(std::uint32_t));
  append(l.csr_col.data(), l.csr_col.size() * sizeof(std::uint32_t));
  append(l.csr_id8.data(), l.csr_id8.size());
  append(l.csr_id16.data(), l.csr_id16.size() * sizeof(std::uint16_t));
  append(l.codebook.data(), l.codebook.size() * sizeof(float));
  return util::crc32(blob);
}

void report_dc(const char* label, const std::vector<std::uint8_t>& bytes) {
  serve::ModelStoreOptions opts;
  opts.native_form = true;
  serve::ModelStore store(bytes, opts);
  std::printf("%s: %zu bytes, file crc 0x%08x\n", label, bytes.size(),
              util::crc32(bytes));
  for (const auto& e : store.reader().entries()) {
    auto l = store.get(e.name);
    std::printf("  %-4s nnz %zu  k %zu  codebook-csr crc 0x%08x\n",
                e.name.c_str(), l->nnz(), l->codebook.size(),
                codebook_csr_crc(*l));
  }
}

}  // namespace

namespace {

/// Deterministic weight-like values for the bare SZ stream fixtures.
std::vector<float> sz_fixture_values() {
  return data::synthesize_fc_weights(40, 100, 2024);  // 4000 floats
}

std::vector<std::uint8_t> encode_sz_v2() {
  sz::SzParams params;
  params.error_bound = 1e-3;
  params.chunk_size = 1500;  // three chunks over 4000 values
  return sz::compress(sz_fixture_values(), params);
}

void report_sz(const char* label, const std::vector<std::uint8_t>& stream) {
  auto decoded = sz::decompress(stream);
  std::printf("%s: %zu bytes, file crc 0x%08x, decoded crc 0x%08x\n", label,
              stream.size(), util::crc32(stream), float_crc(decoded));
}

/// Hand-built training state (NOT a Trainer run — those depend on the gemm
/// backend) so the checkpoint fixture is reproducible on any host.
train::TrainingState ckpt_fixture_state() {
  const auto fc6 = data::synthesize_pruned_layer("fc6", 24, 32, 0.25, 1001);
  train::TrainingState state;
  state.model = "golden-net";
  state.seed = 2024;
  state.step = 321;
  state.samples_seen = 41088;

  train::CheckpointStream data;
  data.name = "fc6.data";
  data.kind = train::StreamKind::kFcData;
  data.masked = true;
  data.rows = fc6.rows;
  data.cols = fc6.cols;
  data.floats = fc6.data;
  state.streams.push_back(std::move(data));

  train::CheckpointStream index;
  index.name = "fc6.index";
  index.kind = train::StreamKind::kFcIndex;
  index.rows = fc6.rows;
  index.cols = fc6.cols;
  index.bytes = fc6.index;
  state.streams.push_back(std::move(index));

  train::CheckpointStream bias;
  bias.name = "fc6.bias";
  bias.kind = train::StreamKind::kFloats;
  bias.floats = fixture_bias();
  state.streams.push_back(std::move(bias));

  train::CheckpointStream wvel;
  wvel.name = "fc6.wvel";
  wvel.kind = train::StreamKind::kFloats;
  for (std::size_t i = 0; i < fc6.data.size(); ++i) {
    wvel.floats.push_back(0.001f * static_cast<float>(i % 5) - 0.002f);
  }
  state.streams.push_back(std::move(wvel));

  train::CheckpointStream bvel;
  bvel.name = "fc6.bvel";
  bvel.kind = train::StreamKind::kFloats;
  bvel.floats.assign(24, 0.0f);
  state.streams.push_back(std::move(bvel));
  return state;
}

std::vector<std::uint8_t> encode_ckpt_v1() {
  train::CheckpointOptions options;
  options.data_codec = "sz";
  options.lossless_codec = "zstd";
  options.eb = {{"fc6.data", 1e-3}};
  return train::write_checkpoint(ckpt_fixture_state(), options);
}

void report_ckpt(const char* label, const std::vector<std::uint8_t>& bytes) {
  train::CheckpointReader reader(bytes);
  reader.verify_body_crc();
  std::printf("%s: %zu bytes, file crc 0x%08x\n", label, bytes.size(),
              util::crc32(bytes));
  for (std::size_t i = 0; i < reader.num_streams(); ++i) {
    auto s = reader.decode_stream(i);
    std::uint32_t crc =
        s.kind == train::StreamKind::kFcIndex ? util::crc32(s.bytes)
                                              : float_crc(s.floats);
    std::printf("  %-9s decoded crc 0x%08x\n", s.name.c_str(), crc);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string dir = argc > 1 ? argv[1] : "tests/fixtures";
  auto sz_v2 = encode_sz_v2();
  auto dc = encode_dc_v3();
  auto ckpt = encode_ckpt_v1();
  auto delta_base = encode_delta_base_v3();
  write_file(dir + "/sz_v2.szs", sz_v2);
  write_file(dir + "/dc_v3.dszc", dc);
  write_file(dir + "/ckpt_v1.dszk", ckpt);
  write_file(dir + "/delta_base_v3.dszc", delta_base);
  report_sz("sz_v2.szs", sz_v2);
  report_dc("dc_v3.dszc", dc);
  report_ckpt("ckpt_v1.dszk", ckpt);
  report("delta_base_v3.dszc", delta_base);
  return 0;
}
