// sparse_fc_forward: CSR batched forward agrees with the generic dense walk
// to fp tolerance for every batch size, including the padded widths.
#include "serve/sparse_forward.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

std::vector<std::uint8_t> chained_container(bool with_bias) {
  std::vector<sparse::PrunedLayer> layers;
  layers.push_back(data::synthesize_pruned_layer("fc1", 24, 32, 0.2, 301));
  layers.push_back(data::synthesize_pruned_layer("fc2", 16, 24, 0.3, 302));
  layers.push_back(data::synthesize_pruned_layer("fc3", 5, 16, 0.5, 303));
  std::map<std::string, std::vector<float>> biases;
  if (with_bias) {
    util::Pcg32 rng(9);
    for (const auto& l : layers) {
      std::vector<float> b(static_cast<std::size_t>(l.rows));
      for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 0.1));
      biases[l.name] = b;
    }
  }
  return core::encode_model(layers, {}, {}, biases).bytes;
}

nn::Tensor random_batch(std::int64_t rows, std::int64_t cols,
                        std::uint64_t seed) {
  nn::Tensor x({rows, cols});
  util::Pcg32 rng(seed);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return x;
}

ModelStoreOptions with_csr() {
  ModelStoreOptions opts;
  opts.build_csr = true;
  return opts;
}

TEST(SparseForward, CsrViewMatchesDenseMatrix) {
  ModelStore store(chained_container(true), with_csr());
  auto layer = store.get("fc1");
  ASSERT_EQ(layer->csr_rowptr.size(), static_cast<std::size_t>(layer->rows) + 1);
  EXPECT_GT(layer->nnz(), 0u);
  EXPECT_LT(layer->density(), 0.5);  // pruned to keep 0.2

  // Rebuild the dense matrix from CSR; must match exactly.
  std::vector<float> rebuilt(layer->dense.size(), 0.0f);
  for (std::int64_t r = 0; r < layer->rows; ++r) {
    for (std::uint32_t nz = layer->csr_rowptr[r];
         nz < layer->csr_rowptr[r + 1]; ++nz) {
      rebuilt[r * layer->cols + layer->csr_col[nz]] = layer->csr_val[nz];
    }
  }
  EXPECT_EQ(rebuilt, layer->dense);
}

TEST(SparseForward, MatchesGenericPathAcrossBatchSizes) {
  auto bytes = chained_container(true);
  ModelStore store(bytes, with_csr());
  std::vector<std::shared_ptr<const ServedLayer>> chain = {
      store.get("fc1"), store.get("fc2"), store.get("fc3")};

  auto net = make_fc_network(store.reader());
  InferenceSession session(store, net);  // generic path (sparse off)

  for (std::int64_t rows : {1, 2, 3, 4, 7, 8, 9, 16, 33}) {
    auto x = random_batch(rows, 32, 400u + static_cast<std::uint64_t>(rows));
    auto expect = session.infer(x);
    auto got = sparse_fc_forward(chain, x);
    ASSERT_EQ(got.dim(0), rows);
    ASSERT_EQ(got.dim(1), 5);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_NEAR(got[i], expect[i], 1e-4) << "rows=" << rows << " i=" << i;
    }
  }
}

TEST(SparseForward, HandlesMissingBias) {
  ModelStore store(chained_container(false), with_csr());
  std::vector<std::shared_ptr<const ServedLayer>> chain = {
      store.get("fc1"), store.get("fc2"), store.get("fc3")};
  auto net = make_fc_network(store.reader());
  InferenceSession session(store, net);
  auto x = random_batch(6, 32, 77);
  auto expect = session.infer(x);
  auto got = sparse_fc_forward(chain, x);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(got[i], expect[i], 1e-4);
  }
}

TEST(SparseForward, RejectsBadInputs) {
  ModelStore store(chained_container(true), with_csr());
  EXPECT_THROW(sparse_fc_forward({}, random_batch(4, 32, 1)),
               std::invalid_argument);
  std::vector<std::shared_ptr<const ServedLayer>> chain = {store.get("fc1")};
  EXPECT_THROW(sparse_fc_forward(chain, random_batch(4, 31, 1)),
               std::invalid_argument);
  std::vector<std::shared_ptr<const ServedLayer>> broken = {store.get("fc1"),
                                                            store.get("fc3")};
  EXPECT_THROW(sparse_fc_forward(broken, random_batch(4, 32, 1)),
               std::invalid_argument);

  // Dense-only store (build_csr off): kernel refuses, session falls back.
  ModelStore dense_store(chained_container(true));
  std::vector<std::shared_ptr<const ServedLayer>> no_csr = {
      dense_store.get("fc1")};
  EXPECT_FALSE(no_csr[0]->has_csr());
  EXPECT_THROW(sparse_fc_forward(no_csr, random_batch(4, 32, 1)),
               std::invalid_argument);
  auto net = make_fc_network(dense_store.reader());
  InferenceSession session(dense_store, net);
  session.enable_sparse_forward(true);  // no CSR -> generic walk, still OK
  auto y = session.infer(random_batch(8, 32, 2));
  EXPECT_EQ(y.dim(1), 5);
}

TEST(SparseForward, SessionOptInUsesSparsePathForLargeBatches) {
  auto bytes = chained_container(true);
  ModelStore store(bytes, with_csr());
  auto net_a = make_fc_network(store.reader());
  InferenceSession dense_session(store, net_a);
  auto net_b = make_fc_network(store.reader());
  InferenceSession sparse_session(store, net_b);
  sparse_session.enable_sparse_forward(true);
  EXPECT_FALSE(dense_session.sparse_forward_enabled());
  EXPECT_TRUE(sparse_session.sparse_forward_enabled());

  for (std::int64_t rows : {1, 8}) {
    auto x = random_batch(rows, 32, 500u + static_cast<std::uint64_t>(rows));
    auto expect = dense_session.infer(x);
    auto got = sparse_session.infer(x);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_NEAR(got[i], expect[i], 1e-4) << "rows=" << rows;
    }
  }
  // Opted-in sessions still install (pin) every layer exactly once.
  EXPECT_EQ(sparse_session.stats().layer_installs, 3u);
}

TEST(SparseForward, ProfitabilityGate) {
  // Batch 1 must never take the sparse path (it would be slower); the
  // AVX2-only answer for larger batches depends on the host.
  EXPECT_FALSE(sparse_forward_profitable(1));
  EXPECT_FALSE(sparse_forward_profitable(3));
}

}  // namespace
}  // namespace deepsz::serve
