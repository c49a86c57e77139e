// InferenceSession: ModelStore-backed forward passes — lazy layer install,
// bit-identical results vs. an eagerly decoded network, and zero codec work
// once warm.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "core/pipeline.h"
#include "data/weight_synthesis.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

// A chained fc-stack container: fc6 [24x32], fc7 [16x24], fc8 [4x16], all
// with biases, exactly what a "deepsz" session emits for an MLP.
struct ServeFixture {
  std::vector<sparse::PrunedLayer> layers;
  std::map<std::string, std::vector<float>> biases;
  core::EncodedModel model;

  ServeFixture() {
    layers.push_back(
        data::synthesize_pruned_layer("fc6", 24, 32, 0.25, 101));
    layers.push_back(
        data::synthesize_pruned_layer("fc7", 16, 24, 0.30, 102));
    layers.push_back(data::synthesize_pruned_layer("fc8", 4, 16, 0.50, 103));
    util::Pcg32 rng(7);
    for (const auto& l : layers) {
      std::vector<float> b(static_cast<std::size_t>(l.rows));
      for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 0.1));
      biases[l.name] = b;
    }
    model = core::encode_model(layers, {}, {}, biases);
  }

  /// Network matching the container's fc-stack (Dense in = cols, out = rows).
  static nn::Network make_net(const std::string& name) {
    nn::Network net(name);
    net.add<nn::Dense>(32, 24)->set_name("fc6");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(24, 16)->set_name("fc7");
    net.add<nn::ReLU>();
    net.add<nn::Dense>(16, 4)->set_name("fc8");
    return net;
  }

  static nn::Tensor make_batch(std::int64_t n, std::uint64_t seed) {
    nn::Tensor x({n, 32});
    util::Pcg32 rng(seed);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      x[i] = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return x;
  }
};

TEST(InferenceSession, MatchesEagerlyDecodedNetworkBitExactly) {
  ServeFixture f;
  // Reference: decode the whole container up front (the paper's deployment
  // path) into a fresh network.
  auto reference = ServeFixture::make_net("reference");
  core::load_compressed_model(f.model.bytes, reference);

  ModelStore store(f.model.bytes);
  auto served_net = ServeFixture::make_net("served");
  InferenceSession session(store, served_net);

  for (std::uint64_t seed : {1u, 2u, 3u}) {
    auto batch = ServeFixture::make_batch(8, seed);
    auto expect = reference.forward(batch);
    auto got = session.infer(batch);
    ASSERT_EQ(got.numel(), expect.numel());
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "logit " << i;
    }
  }
  EXPECT_EQ(session.stats().layer_installs, 3u);  // one per fc-layer, ever
}

TEST(InferenceSession, ConstructionDecodesNothing) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto net = ServeFixture::make_net("lazy");
  InferenceSession session(store, net);
  // Layers decode when a request reaches them, not when the session opens.
  EXPECT_EQ(store.stats().lookups(), 0u);
  EXPECT_EQ(session.stats().layer_installs, 0u);
  session.infer(ServeFixture::make_batch(2, 9));
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(InferenceSession, WarmRequestsDoZeroCodecWork) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto net = ServeFixture::make_net("warm");
  InferenceSession session(store, net);

  session.infer(ServeFixture::make_batch(4, 11));  // cold: decodes all three
  store.reset_stats();
  for (int i = 0; i < 5; ++i) {
    session.infer(ServeFixture::make_batch(4, 20u + i));
  }
  // Warm steady state: the session holds its bindings, so it does not even
  // consult the store, let alone run a codec.
  auto stats = store.stats();
  EXPECT_EQ(stats.lookups(), 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(session.stats().layer_installs, 3u);
}

TEST(InferenceSession, SecondSessionHitsWarmCache) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto net_a = ServeFixture::make_net("a");
  InferenceSession first(store, net_a);
  first.infer(ServeFixture::make_batch(2, 31));

  store.reset_stats();
  auto net_b = ServeFixture::make_net("b");
  InferenceSession second(store, net_b);
  second.infer(ServeFixture::make_batch(2, 32));
  auto stats = store.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 1.0);
}

TEST(InferenceSession, PinnedLayersSurviveCacheEviction) {
  ServeFixture f;
  ModelStoreOptions opts;
  opts.cache_budget_bytes = 0;  // every decode is immediately evicted
  ModelStore store(f.model.bytes, opts);
  auto net = ServeFixture::make_net("evicted");
  InferenceSession session(store, net);

  auto reference = ServeFixture::make_net("reference");
  core::load_compressed_model(f.model.bytes, reference);

  for (std::uint64_t seed : {41u, 42u}) {
    auto batch = ServeFixture::make_batch(4, seed);
    auto expect = reference.forward(batch);
    auto got = session.infer(batch);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got[i], expect[i]);
    }
  }
  // Nothing retained by the cache, yet the session's pins kept every bound
  // span alive and each layer decoded only once.
  EXPECT_EQ(store.stats().cached_layers, 0u);
  EXPECT_EQ(store.stats().misses, 3u);
}

TEST(InferenceSession, LayersOutsideContainerKeepTheirOwnWeights) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  nn::Network net("mixed");
  net.add<nn::Dense>(32, 24)->set_name("fc6");
  net.add<nn::ReLU>();
  net.add<nn::Dense>(24, 16)->set_name("fc7");
  net.add<nn::ReLU>();
  auto* head = net.add<nn::Dense>(16, 4);
  head->set_name("head");  // not in the container
  head->weight().fill(0.5f);
  head->bias().fill(-0.25f);

  InferenceSession session(store, net);
  auto out = session.infer(ServeFixture::make_batch(2, 51));
  EXPECT_EQ(session.stats().layer_installs, 2u);  // fc6, fc7 only
  EXPECT_FALSE(head->has_bound_weights());
  EXPECT_EQ(out.dim(1), 4);
}

TEST(InferenceSession, ReleaseLayersUnbindsAndRefetches) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto net = ServeFixture::make_net("release");
  InferenceSession session(store, net);
  session.infer(ServeFixture::make_batch(2, 61));
  session.release_layers();
  for (auto* d : net.dense_layers()) {
    EXPECT_FALSE(d->has_bound_weights()) << d->name();
  }
  store.reset_stats();
  session.infer(ServeFixture::make_batch(2, 62));
  EXPECT_EQ(store.stats().lookups(), 3u);  // re-fetched (cache hits)
  EXPECT_EQ(store.stats().hits, 3u);
}

TEST(InferenceSession, ShapeMismatchIsRejectedAtConstruction) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  nn::Network net("bad");
  net.add<nn::Dense>(32, 10)->set_name("fc6");  // container says [24 x 32]
  EXPECT_THROW(InferenceSession(store, net), std::invalid_argument);
}

TEST(InferenceSession, DestructorUnbindsNetworkForTrainingReuse) {
  ServeFixture f;
  ModelStore store(f.model.bytes);
  auto net = ServeFixture::make_net("reuse");
  {
    InferenceSession session(store, net);
    session.infer(ServeFixture::make_batch(2, 71));
    auto* fc6 = net.find_dense("fc6");
    EXPECT_TRUE(fc6->has_bound_weights());
    // While bound, the layer refuses training.
    auto x = ServeFixture::make_batch(2, 72);
    auto y = fc6->forward(x, /*train=*/true);
    EXPECT_THROW(fc6->backward(y), std::logic_error);
  }
  for (auto* d : net.dense_layers()) {
    EXPECT_FALSE(d->has_bound_weights()) << d->name();
  }
}

}  // namespace
}  // namespace deepsz::serve
