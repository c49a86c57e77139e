// ModelStore: byte-budgeted LRU over decoded layers, thread-safe lookup,
// coalesced in-flight decodes, and eviction that never invalidates readers.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "codec/registry.h"
#include "core/delta_codec.h"
#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "obs/trace.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

std::vector<sparse::PrunedLayer> some_layers(int n = 3) {
  std::vector<sparse::PrunedLayer> layers;
  for (int i = 0; i < n; ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(6 + i), 64, 128, 0.15, 21 + i));
  }
  return layers;
}

std::vector<std::uint8_t> encode(const std::vector<sparse::PrunedLayer>& ls,
                                 core::ContainerOptions opts = {}) {
  return core::encode_model(ls, {}, opts).bytes;
}

/// The exact dense matrix a full decode reconstructs for one layer (the
/// data arrays are lossy-coded, so the original layer is NOT the oracle).
std::vector<float> decoded_dense(const std::vector<std::uint8_t>& bytes,
                                 std::size_t i) {
  return core::decode_model(bytes).layers[i].to_dense();
}

TEST(ModelStore, MissThenHitAndPeek) {
  auto layers = some_layers();
  auto bytes = encode(layers);
  ModelStore store(bytes);
  EXPECT_EQ(store.peek("fc6"), nullptr);

  auto first = store.get("fc6");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->dense, decoded_dense(bytes, 0));
  auto second = store.get("fc6");
  EXPECT_EQ(first.get(), second.get());  // same cached object
  EXPECT_EQ(store.peek("fc6").get(), first.get());

  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.cached_layers, 1u);
  EXPECT_GT(stats.cached_bytes, 0u);
  // The miss was timed by its decode span, staged under the default label.
  EXPECT_GT(obs::Tracer::stage_total_ms("decode", "store"), 0.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
  EXPECT_THROW(store.get("nope"), std::out_of_range);
}

TEST(ModelStore, ServesBiasFromContainer) {
  auto layers = some_layers(1);
  std::map<std::string, std::vector<float>> biases = {
      {"fc6", std::vector<float>(64, 0.125f)}};
  auto model = core::encode_model(layers, {}, {}, biases);
  ModelStore store(model.bytes);
  auto served = store.get("fc6");
  EXPECT_EQ(served->bias, biases["fc6"]);
}

TEST(ModelStore, LruEvictsUnderByteBudget) {
  auto layers = some_layers(3);
  // Probe one layer's cached footprint, then budget for exactly two.
  std::size_t per_layer = 0;
  {
    ModelStore probe(encode(layers));
    per_layer = probe.get("fc6")->bytes();
  }
  ModelStoreOptions opts;
  opts.cache_budget_bytes = 2 * per_layer + per_layer / 2;
  ModelStore store(encode(layers), opts);

  store.get("fc6");
  store.get("fc7");
  store.get("fc8");  // evicts fc6, the least recently used
  EXPECT_EQ(store.peek("fc6"), nullptr);
  EXPECT_NE(store.peek("fc7"), nullptr);
  EXPECT_NE(store.peek("fc8"), nullptr);

  auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.cached_layers, 2u);
  EXPECT_LE(stats.cached_bytes, opts.cache_budget_bytes);

  // Touching fc7 makes fc8 the LRU victim when fc6 reloads.
  store.get("fc7");
  store.get("fc6");
  EXPECT_EQ(store.peek("fc8"), nullptr);
  EXPECT_NE(store.peek("fc7"), nullptr);
}

TEST(ModelStore, OversizedLayerServedButNotRetained) {
  auto layers = some_layers(1);
  auto bytes = encode(layers);
  ModelStoreOptions opts;
  opts.cache_budget_bytes = 0;
  ModelStore store(bytes, opts);
  auto served = store.get("fc6");
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->dense, decoded_dense(bytes, 0));
  auto stats = store.stats();
  EXPECT_EQ(stats.cached_layers, 0u);
  EXPECT_EQ(stats.cached_bytes, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(ModelStore, EvictionKeepsOutstandingReadersValid) {
  auto layers = some_layers(1);
  ModelStore store(encode(layers));
  auto served = store.get("fc6");
  const auto snapshot = served->dense;
  store.evict_all();
  EXPECT_EQ(store.peek("fc6"), nullptr);
  EXPECT_EQ(served->dense, snapshot);  // shared_ptr pins the memory
}

namespace {

class CountingCodec : public codec::ByteCodec {
 public:
  static std::atomic<int>& decodes() {
    static std::atomic<int> count{0};
    return count;
  }
  std::string name() const override { return "countdec-store"; }
  std::vector<std::uint8_t> encode(
      std::span<const std::uint8_t> data) const override {
    std::vector<std::uint8_t> out;
    out.reserve(data.size() + 1);
    out.push_back(0xCE);
    out.insert(out.end(), data.begin(), data.end());
    return out;
  }
  std::vector<std::uint8_t> decode(
      std::span<const std::uint8_t> frame) const override {
    if (frame.empty() || frame[0] != 0xCE) {
      throw std::runtime_error("countdec-store: bad frame");
    }
    ++decodes();
    return std::vector<std::uint8_t>(frame.begin() + 1, frame.end());
  }
};

void ensure_counting_codec() {
  auto& reg = codec::CodecRegistry::instance();
  if (reg.has_byte("countdec-store")) return;
  codec::CodecInfo info;
  info.name = "countdec-store";
  info.summary = "decode-counting identity codec (tests)";
  reg.register_byte(info, [](const codec::Options& opts) {
    opts.check_known({});
    return std::make_shared<CountingCodec>();
  });
}

}  // namespace

TEST(ModelStore, DuplicateInFlightDecodesCoalesce) {
  ensure_counting_codec();
  auto layers = some_layers(1);
  core::ContainerOptions copts;
  copts.index_codec = "countdec-store";
  ModelStore store(encode(layers, copts));

  CountingCodec::decodes() = 0;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const ServedLayer>> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] { results[t] = store.get("fc6"); });
    }
    for (auto& th : threads) th.join();
  }
  // The layer's index stream ran through the codec exactly once, no matter
  // how the eight lookups raced.
  EXPECT_EQ(CountingCodec::decodes(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1u);
}

TEST(ModelStore, ConcurrentDistinctLayersAllDecodeCorrectly) {
  auto layers = some_layers(3);
  auto bytes = encode(layers);
  ModelStore store(bytes);
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const ServedLayer>> results(3);
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = store.get(layers[t].name); });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 3; ++t) {
    ASSERT_NE(results[t], nullptr);
    EXPECT_EQ(results[t]->dense, decoded_dense(bytes, t));
  }
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(ModelStore, WarmupFillsCacheInParallel) {
  auto layers = some_layers(3);
  ModelStore store(encode(layers));
  store.warmup();
  auto stats = store.stats();
  EXPECT_EQ(stats.cached_layers, 3u);
  EXPECT_EQ(stats.misses, 3u);

  store.reset_stats();
  for (const auto& l : layers) store.get(l.name);
  stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0);
}

TEST(ModelStore, CorruptLayerFailsEveryWaiterAndCachesNothing) {
  auto layers = some_layers(2);
  auto bytes = encode(layers);
  core::ContainerReader pristine(bytes);
  const auto& target = pristine.entry("fc6");
  bytes[static_cast<std::size_t>(target.data.offset + target.data.length / 2)] ^=
      0x01;

  ModelStore store(std::move(bytes));
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      try {
        store.get("fc6");
      } catch (const std::runtime_error&) {
        ++failures;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures, kThreads);
  EXPECT_EQ(store.peek("fc6"), nullptr);
  EXPECT_EQ(store.stats().cached_layers, 0u);
  // The intact layer still serves.
  EXPECT_NE(store.get("fc7"), nullptr);
}

TEST(ModelStore, ZeroFirstDeltaRejectedNotWrittenBeforeMatrix) {
  // A leading zero delta puts the position cursor at -1. The public encoder
  // writes such a layer as-is under f32/store, so no CRC forgery is needed.
  sparse::PrunedLayer l;
  l.name = "fc1";
  l.rows = 2;
  l.cols = 4;
  l.index = {0, 1, 1};
  l.data = {1.0f, 2.0f, 3.0f};
  core::ContainerOptions copts;
  copts.data_codec = "f32";
  copts.index_codec = "store";
  const auto bytes = encode({l}, copts);
  for (bool build_csr : {false, true}) {
    ModelStoreOptions opts;
    opts.build_csr = build_csr;
    ModelStore store(bytes, opts);
    try {
      store.get("fc1");
      FAIL() << "zero delta accepted, build_csr=" << build_csr;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("zero position delta"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(store.stats().cached_layers, 0u);
  }
}

TEST(ModelStore, CsrViewMatchesDenseScan) {
  // The single-pass reconstruct must keep exactly the entries, in exactly
  // the order, that a row-major scan of the decoded dense matrix keeps —
  // including SZ-reconstructed fillers that came back nonzero.
  auto layers = some_layers(3);
  ModelStoreOptions opts;
  opts.build_csr = true;
  ModelStore store(encode(layers), opts);
  for (const auto& layer : layers) {
    auto served = store.get(layer.name);
    ASSERT_TRUE(served->has_csr());
    std::vector<std::uint32_t> rowptr{0}, col;
    std::vector<float> val;
    for (std::int64_t r = 0; r < served->rows; ++r) {
      for (std::int64_t c = 0; c < served->cols; ++c) {
        const float v = served->dense[r * served->cols + c];
        if (v != 0.0f) {
          col.push_back(static_cast<std::uint32_t>(c));
          val.push_back(v);
        }
      }
      rowptr.push_back(static_cast<std::uint32_t>(col.size()));
    }
    EXPECT_EQ(served->csr_rowptr, rowptr) << layer.name;
    EXPECT_EQ(served->csr_col, col) << layer.name;
    EXPECT_EQ(served->csr_val, val) << layer.name;
    EXPECT_EQ(served->csr_val.capacity(), val.size()) << layer.name;
  }
}

std::vector<std::uint8_t> encode_dc(
    const std::vector<sparse::PrunedLayer>& ls) {
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=4,iters=8";
  copts.index_codec = "huffman";
  return core::encode_model(ls, {}, copts).bytes;
}

TEST(ModelStore, NativeFormServesDcLayersAsCodebookCsr) {
  auto layers = some_layers(2);
  ModelStoreOptions opts;
  opts.native_form = true;
  ModelStore store(encode_dc(layers), opts);
  auto served = store.get("fc6");
  ASSERT_EQ(served->form, ServingForm::kCodebookCsr);
  EXPECT_TRUE(served->dense.empty());
  EXPECT_TRUE(served->csr_val.empty());
  EXPECT_TRUE(served->has_csr());
  EXPECT_EQ(served->codebook.size(), 16u);  // dc:bits=4
  EXPECT_EQ(served->csr_id8.size(), served->nnz());
  // Compressed-domain residency: far below the 4*rows*cols bytes a dense
  // f32 decode of the same layer would pin (64x128 -> 32 KB dense).
  EXPECT_LT(served->bytes(), 4u * 64 * 128 / 4);

  // Without the opt-in, the same container inflates to dense f32.
  ModelStore plain(encode_dc(layers));
  auto dense = plain.get("fc6");
  EXPECT_EQ(dense->form, ServingForm::kDenseF32);
  EXPECT_EQ(dense->dense.size(), 64u * 128u);
  EXPECT_TRUE(dense->codebook.empty());
}

TEST(ModelStore, FormBytesPartitionCachedBytes) {
  auto layers = some_layers(3);
  ModelStoreOptions opts;
  opts.native_form = true;
  opts.build_csr = true;
  ModelStore store(encode_dc(layers), opts);
  store.warmup();
  auto stats = store.stats();
  // All three layers are "dc"-coded: everything resident sits in the
  // codebook-CSR bucket and the buckets always sum to cached_bytes.
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr),
            stats.cached_bytes);
  EXPECT_EQ(stats.form_resident(ServingForm::kDenseF32), 0u);
  EXPECT_EQ(stats.form_resident(ServingForm::kSparseCsr), 0u);

  // A dense-decoding store over the same bytes fills the f32 bucket only.
  ModelStore plain(encode_dc(layers));
  plain.warmup();
  auto pstats = plain.stats();
  EXPECT_EQ(pstats.form_resident(ServingForm::kDenseF32),
            pstats.cached_bytes);
  EXPECT_EQ(pstats.form_resident(ServingForm::kCodebookCsr), 0u);

  // A CSR-building store (no native form) fills the sparse-CSR bucket.
  ModelStoreOptions csr_opts;
  csr_opts.build_csr = true;
  ModelStore csr_store(encode_dc(layers), csr_opts);
  csr_store.warmup();
  auto cstats = csr_store.stats();
  EXPECT_EQ(cstats.form_resident(ServingForm::kSparseCsr),
            cstats.cached_bytes);
}

TEST(ModelStore, FormBytesTrackEvictionAndReset) {
  auto layers = some_layers(3);
  std::size_t per_layer = 0;
  {
    ModelStoreOptions probe_opts;
    probe_opts.native_form = true;
    ModelStore probe(encode_dc(layers), probe_opts);
    per_layer = probe.get("fc6")->bytes();
  }
  ModelStoreOptions opts;
  opts.native_form = true;
  opts.cache_budget_bytes = 2 * per_layer + per_layer / 2;
  ModelStore store(encode_dc(layers), opts);
  store.get("fc6");
  store.get("fc7");
  store.get("fc8");  // evicts fc6
  auto stats = store.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr),
            stats.cached_bytes);

  // reset_stats zeroes counters but keeps the residency accounting.
  store.reset_stats();
  stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr),
            stats.cached_bytes);
  EXPECT_GT(stats.cached_bytes, 0u);

  // evict_all empties every bucket.
  store.evict_all();
  stats = store.stats();
  EXPECT_EQ(stats.cached_bytes, 0u);
  for (std::size_t f = 0; f < kNumServingForms; ++f) {
    EXPECT_EQ(stats.form_bytes[f], 0u) << "form " << f;
  }
}

TEST(ModelStore, NativeFormLeavesNonCodebookCodecsDense) {
  // native_form only changes how codecs WITH a compressed-domain form are
  // served; an "sz" container through the same store decodes to dense f32
  // (or sparse-CSR with build_csr) exactly as before.
  auto layers = some_layers(1);
  ModelStoreOptions opts;
  opts.native_form = true;
  auto bytes = encode(layers);
  ModelStore store(bytes, opts);
  auto served = store.get("fc6");
  EXPECT_EQ(served->form, ServingForm::kDenseF32);
  EXPECT_EQ(served->dense, decoded_dense(bytes, 0));
  EXPECT_TRUE(served->codebook.empty());
  auto stats = store.stats();
  EXPECT_EQ(stats.form_resident(ServingForm::kDenseF32), stats.cached_bytes);
  EXPECT_EQ(stats.form_resident(ServingForm::kCodebookCsr), 0u);
}

TEST(ModelStore, DecodePhaseSpansNestInsideTheirDecodeSpan) {
  // Containers first: encoding a delta decodes both sides, outside any store.
  const auto base_layers = some_layers(2);
  auto next_layers = base_layers;
  util::Pcg32 rng(0xde17a);
  for (auto& l : next_layers) {
    for (auto& v : l.data) v += static_cast<float>(rng.normal(0.0, 2e-3));
  }
  const auto base = encode(base_layers);
  core::DeltaOptions dopts;
  dopts.base_id = "base";
  const auto delta_bytes =
      core::encode_delta_model(base, encode(next_layers), dopts).bytes;
  core::ContainerOptions dc;
  dc.data_codec = "dc:bits=4,iters=8";
  dc.index_codec = "huffman";
  const auto dc_bytes = encode(base_layers, dc);

  obs::Tracer::set_enabled(true);
  obs::Tracer::reset();
  ModelStoreOptions opts;
  opts.build_csr = true;
  opts.native_form = true;  // dc layers serve as codebook-CSR
  ModelStore(base, opts).get("fc6");
  ModelStore(dc_bytes, opts).get("fc6");
  opts.base_store = std::make_shared<ModelStore>(base);
  ModelStore delta(delta_bytes, opts);
  delta.get("fc6");                // cold: through the base chain
  opts.base_store->get("fc7");
  delta.get("fc7");                // warm: against the resident base layer
  const auto events = obs::Tracer::snapshot().events;
  obs::Tracer::set_enabled(false);
  obs::Tracer::reset();
  ASSERT_EQ(delta.reader().entry("fc6").kind, core::LayerKind::kDelta);
  ASSERT_EQ(delta.reader().entry("fc7").kind, core::LayerKind::kDelta);

  // A measured phase opens after its parent decode did and closes before it
  // does, on the same thread (a child back-dated to the parent's start is a
  // synthesized one).
  const auto inside = [](const obs::TraceEvent& child,
                         const obs::TraceEvent* parent) {
    return child.tid == parent->tid && child.start_ns > parent->start_ns &&
           child.start_ns + child.dur_ns <= parent->start_ns + parent->dur_ns;
  };
  std::vector<const obs::TraceEvent*> decodes;
  for (const auto& e : events) {
    if (std::string(e.name) == "decode") decodes.push_back(&e);
  }
  ASSERT_EQ(decodes.size(), 5u);
  using Phases = std::multiset<std::string>;
  std::vector<Phases> phases(decodes.size());
  for (const auto& e : events) {
    if (std::string(e.name) == "decode") continue;
    const auto d = std::find_if(decodes.begin(), decodes.end(),
                                [&](const auto* p) { return inside(e, p); });
    ASSERT_NE(d, decodes.end()) << e.name << " of " << e.detail;
    phases[static_cast<std::size_t>(d - decodes.begin())].insert(e.name);
  }
  // In call order: full, codebook, cold delta (the base layer's streams,
  // then the delta's), the base store's fc7, warm delta (the resident base's
  // index stream, then the delta's).
  const Phases one = {"lossless", "eb_decode", "reconstruct"};
  const std::vector<Phases> want = {
      one, one,
      {"lossless", "lossless", "eb_decode", "eb_decode", "reconstruct",
       "reconstruct"},
      one, {"lossless", "lossless", "eb_decode", "reconstruct", "reconstruct"}};
  EXPECT_EQ(phases, want);
}

}  // namespace
}  // namespace deepsz::serve
