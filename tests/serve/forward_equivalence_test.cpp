// Differential harness for the compressed-domain forward path: dense f32,
// sparse CSR and codebook-CSR serving forms must agree on the same "dc"
// container, backend for backend, across randomized shapes, sparsities and
// batch sizes.
//
// Exactness contract (sparse_forward.h): for one backend, the codebook
// kernel and the csr_val kernel are BIT-exact (the codebook build keeps
// exactly the entries whose centroid is nonzero — the same set the dense->
// CSR scan keeps — and the gather feeds the identical FMA loop). Across
// backends (scalar vs AVX2) and against the generic dense walk, outputs
// only agree to fp tolerance (different summation order).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/model_codec.h"
#include "data/weight_synthesis.h"
#include "serve/inference_session.h"
#include "serve/model_store.h"
#include "serve/sparse_forward.h"
#include "server/model_repository.h"
#include "server/scheduler.h"
#include "tests/server/test_containers.h"
#include "util/cpu.h"
#include "util/rng.h"

namespace deepsz::serve {
namespace {

struct Config {
  std::vector<std::int64_t> dims;  // dims[0] -> ... -> dims.back()
  double keep;
  int bits;  // dc quantization bits; > 8 forces the u16-id path (k > 256)
  std::uint64_t seed;
};

// Shapes chosen to cover: tiny + odd widths (vector tails), a wider stack
// (several full 8-lane chunks per row), dense-ish and heavily pruned
// layers, and both id widths (bits=4 -> k=16 ids in csr_id8, bits=10 ->
// k=1024 ids in csr_id16).
const Config kConfigs[] = {
    {{32, 24, 16}, 0.20, 4, 901},
    {{33, 19, 7}, 0.35, 4, 902},
    {{128, 64, 10}, 0.10, 4, 903},
    {{96, 64, 48}, 0.30, 10, 904},
};

std::vector<std::uint8_t> dc_container(const Config& c, bool with_bias) {
  std::vector<sparse::PrunedLayer> layers;
  for (std::size_t i = 0; i + 1 < c.dims.size(); ++i) {
    layers.push_back(data::synthesize_pruned_layer(
        "fc" + std::to_string(i + 1), c.dims[i + 1], c.dims[i], c.keep,
        c.seed + i));
  }
  std::map<std::string, std::vector<float>> biases;
  if (with_bias) {
    util::Pcg32 rng(c.seed ^ 0x5a5a);
    for (const auto& l : layers) {
      std::vector<float> b(static_cast<std::size_t>(l.rows));
      for (auto& v : b) v = static_cast<float>(rng.normal(0.0, 0.1));
      biases[l.name] = b;
    }
  }
  core::ContainerOptions copts;
  copts.data_codec = "dc:bits=" + std::to_string(c.bits) + ",iters=8";
  copts.index_codec = "huffman";
  return core::encode_model(layers, {}, copts, biases).bytes;
}

ModelStoreOptions csr_options(bool native) {
  ModelStoreOptions opts;
  opts.build_csr = true;
  opts.native_form = native;
  return opts;
}

std::vector<std::shared_ptr<const ServedLayer>> chain_of(
    ModelStore& store) {
  std::vector<std::shared_ptr<const ServedLayer>> chain;
  for (const auto& e : store.reader().entries()) chain.push_back(
      store.get(e.name));
  return chain;
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

void expect_bitwise_equal(const nn::Tensor& a, const nn::Tensor& b,
                          const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) *
                               sizeof(float)))
      << what;
}

void expect_close(const nn::Tensor& a, const nn::Tensor& b, double tol,
                  const char* what) {
  ASSERT_EQ(a.numel(), b.numel()) << what;
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const double scale = std::max({1.0, std::abs(static_cast<double>(a[i])),
                                   std::abs(static_cast<double>(b[i]))});
    EXPECT_NEAR(a[i], b[i], tol * scale) << what << " i=" << i;
  }
}

const std::int64_t kBatchSizes[] = {1, 2, 3, 5, 8, 13, 16};

// The codebook-CSR build must produce the exact structure the dense->CSR
// scan produces, with every weight bit-identical through the codebook
// lookup — on every config, including the u16-id one.
TEST(ForwardEquivalence, CodebookCsrMatchesDenseDerivedCsr) {
  for (const auto& c : kConfigs) {
    auto bytes = dc_container(c, /*with_bias=*/true);
    ModelStore f32_store(bytes, csr_options(/*native=*/false));
    ModelStore cb_store(bytes, csr_options(/*native=*/true));
    for (const auto& e : cb_store.reader().entries()) {
      auto ref = f32_store.get(e.name);
      auto cb = cb_store.get(e.name);
      SCOPED_TRACE("layer " + e.name + " bits=" + std::to_string(c.bits));
      ASSERT_EQ(ref->form, ServingForm::kSparseCsr);
      ASSERT_EQ(cb->form, ServingForm::kCodebookCsr);
      EXPECT_TRUE(cb->dense.empty());
      EXPECT_TRUE(cb->csr_val.empty());
      // Id width follows the codebook size: <= 256 centroids fit u8.
      ASSERT_EQ(cb->codebook.size(), std::size_t{1} << c.bits);
      if (c.bits <= 8) {
        EXPECT_EQ(cb->csr_id8.size(), cb->nnz());
        EXPECT_TRUE(cb->csr_id16.empty());
      } else {
        EXPECT_EQ(cb->csr_id16.size(), cb->nnz());
        EXPECT_TRUE(cb->csr_id8.empty());
      }
      ASSERT_EQ(cb->csr_rowptr, ref->csr_rowptr);
      ASSERT_EQ(cb->csr_col, ref->csr_col);
      ASSERT_EQ(cb->bias, ref->bias);
      for (std::size_t nz = 0; nz < cb->nnz(); ++nz) {
        // Bit-exact: same f32, not merely close.
        ASSERT_EQ(cb->csr_weight(nz), ref->csr_val[nz]) << "nz=" << nz;
      }
    }
  }
}

// One backend, two payload encodings: the codebook kernel must reproduce
// the csr_val kernel bit for bit at every batch size.
TEST(ForwardEquivalence, ScalarKernelBitExactAcrossForms) {
  for (const auto& c : kConfigs) {
    auto bytes = dc_container(c, /*with_bias=*/true);
    ModelStore f32_store(bytes, csr_options(false));
    ModelStore cb_store(bytes, csr_options(true));
    auto ref_chain = chain_of(f32_store);
    auto cb_chain = chain_of(cb_store);
    for (std::int64_t rows : kBatchSizes) {
      auto x = random_batch(rows, c.dims[0],
                            c.seed + 7000 + static_cast<std::uint64_t>(rows));
      auto ref = sparse_fc_forward(ref_chain, x, ForwardBackend::kScalar);
      auto got = sparse_fc_forward(cb_chain, x, ForwardBackend::kScalar);
      expect_bitwise_equal(ref, got, "scalar, codebook vs csr");
    }
  }
}

TEST(ForwardEquivalence, Avx2KernelBitExactAcrossForms) {
  if (!util::have_avx2_fma()) {
    GTEST_SKIP() << "host has no AVX2+FMA";
  }
  for (const auto& c : kConfigs) {
    auto bytes = dc_container(c, /*with_bias=*/true);
    ModelStore f32_store(bytes, csr_options(false));
    ModelStore cb_store(bytes, csr_options(true));
    auto ref_chain = chain_of(f32_store);
    auto cb_chain = chain_of(cb_store);
    for (std::int64_t rows : kBatchSizes) {
      auto x = random_batch(rows, c.dims[0],
                            c.seed + 8000 + static_cast<std::uint64_t>(rows));
      auto ref = sparse_fc_forward(ref_chain, x, ForwardBackend::kAvx2);
      auto got = sparse_fc_forward(cb_chain, x, ForwardBackend::kAvx2);
      expect_bitwise_equal(ref, got, "avx2, codebook vs csr");
    }
  }
}

// Across backends only fp tolerance is promised (the AVX2 kernel sums in
// 8-lane partials). Run both forms so the gather path is covered too.
TEST(ForwardEquivalence, BackendsAgreeWithinTolerance) {
  if (!util::have_avx2_fma()) {
    GTEST_SKIP() << "host has no AVX2+FMA";
  }
  for (const auto& c : kConfigs) {
    auto bytes = dc_container(c, /*with_bias=*/true);
    ModelStore cb_store(bytes, csr_options(true));
    auto cb_chain = chain_of(cb_store);
    for (std::int64_t rows : kBatchSizes) {
      auto x = random_batch(rows, c.dims[0],
                            c.seed + 9000 + static_cast<std::uint64_t>(rows));
      auto scalar = sparse_fc_forward(cb_chain, x, ForwardBackend::kScalar);
      auto avx2 = sparse_fc_forward(cb_chain, x, ForwardBackend::kAvx2);
      expect_close(scalar, avx2, 1e-5, "codebook scalar vs avx2");
    }
  }
}

TEST(ForwardEquivalence, ForcedAvx2ThrowsWhereUnsupported) {
  if (util::have_avx2_fma()) {
    GTEST_SKIP() << "host supports AVX2+FMA";
  }
  auto bytes = dc_container(kConfigs[0], true);
  ModelStore store(bytes, csr_options(true));
  auto chain = chain_of(store);
  EXPECT_THROW(
      sparse_fc_forward(chain, random_batch(4, kConfigs[0].dims[0], 1),
                        ForwardBackend::kAvx2),
      std::invalid_argument);
}

// The compressed-domain session (codebook layers force the kernel at every
// batch size, including batch 1) must agree with the generic dense walk
// over the f32 decode of the SAME container — identical post-quantization
// weights, different kernels.
TEST(ForwardEquivalence, SessionMatchesDenseWalkAtEveryBatchSize) {
  for (const auto& c : kConfigs) {
    auto bytes = dc_container(c, /*with_bias=*/true);
    ModelStore dense_store(bytes);  // plain f32 decode, generic walk
    ModelStore cb_store(bytes, csr_options(true));
    auto dense_net = make_fc_network(dense_store.reader());
    InferenceSession dense_session(dense_store, dense_net);
    auto cb_net = make_fc_network(cb_store.reader());
    InferenceSession cb_session(cb_store, cb_net);  // sparse NOT opted in
    for (std::int64_t rows : kBatchSizes) {
      auto x = random_batch(rows, c.dims[0],
                            c.seed + 100 + static_cast<std::uint64_t>(rows));
      auto expect = dense_session.infer(x);
      auto got = cb_session.infer(x);
      ASSERT_EQ(got.dim(0), rows);
      ASSERT_EQ(got.dim(1), c.dims.back());
      expect_close(expect, got, 1e-4, "dense walk vs codebook session");
    }
  }
}

// End to end through the serving daemon's batched path: a dc model behind
// ModelRepository + RequestScheduler (native form, micro-batched workers)
// returns the same logits as a direct reference session.
TEST(ForwardEquivalence, SchedulerBatchedPathMatchesReferenceSession) {
  const Config c = kConfigs[0];
  auto bytes = dc_container(c, /*with_bias=*/true);

  ModelStore ref_store(bytes);
  auto ref_net = make_fc_network(ref_store.reader());
  InferenceSession ref_session(ref_store, ref_net);

  server::ModelRepository repo(64ull << 20);
  repo.load("dc", bytes);
  server::SchedulerOptions sopts;
  sopts.max_batch = 8;
  server::RequestScheduler sched(repo, sopts);

  const auto cols = c.dims[0];
  for (std::int64_t rows : {std::int64_t{1}, std::int64_t{3},
                            std::int64_t{8}}) {
    auto x = random_batch(rows, cols,
                          c.seed + 600 + static_cast<std::uint64_t>(rows));
    auto expect = ref_session.infer(x);

    server::InferRequest req;
    req.rows = rows;
    req.input.assign(x.data(), x.data() + x.numel());
    auto res = sched.infer("dc", std::move(req));
    ASSERT_EQ(res.status, server::InferStatus::kOk) << res.error;
    ASSERT_EQ(res.rows, rows);
    ASSERT_EQ(res.cols, c.dims.back());
    for (std::int64_t i = 0; i < expect.numel(); ++i) {
      const double scale =
          std::max(1.0, std::abs(static_cast<double>(expect[i])));
      EXPECT_NEAR(res.output[static_cast<std::size_t>(i)], expect[i],
                  1e-4 * scale)
          << "rows=" << rows << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace deepsz::serve
