#include "modelzoo/pretrained.h"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "data/synthetic_imagenet.h"
#include "data/synthetic_mnist.h"
#include "modelzoo/zoo.h"
#include "nn/init.h"
#include "obs/trace.h"
#include "util/log.h"

namespace deepsz::modelzoo {
namespace {

struct Recipe {
  std::int64_t train_n;
  std::int64_t test_n;
  int num_classes;  // 0 = MNIST-style (10 digits)
  int epochs;
  double lr;
  std::int64_t batch;
};

Recipe recipe_for(const std::string& key) {
  if (key == "lenet300") return {6000, 1500, 0, 6, 0.05, 64};
  if (key == "lenet5") return {3000, 1000, 0, 4, 0.01, 32};
  if (key == "alexnet") return {1600, 1000, 20, 5, 0.02, 32};
  if (key == "vgg16") return {1280, 1000, 20, 4, 0.02, 32};
  throw std::invalid_argument("recipe_for: unknown key " + key);
}

data::Dataset make_train(const Recipe& r) {
  if (r.num_classes == 0) return data::synthetic_mnist(r.train_n, 1001);
  return data::synthetic_imagenet(r.train_n, r.num_classes, 2001);
}

data::Dataset make_test(const Recipe& r) {
  if (r.num_classes == 0) return data::synthetic_mnist(r.test_n, 9001);
  return data::synthetic_imagenet(r.test_n, r.num_classes, 9002);
}

}  // namespace

std::string cache_dir() {
  const char* env = std::getenv("DEEPSZ_CACHE");
  std::filesystem::path dir =
      env ? std::filesystem::path(env)
          : std::filesystem::temp_directory_path() / "deepsz_cache";
  std::filesystem::create_directories(dir);
  return dir.string();
}

int training_epochs(const std::string& key) { return recipe_for(key).epochs; }

TrainedModel pretrained(const std::string& key) {
  const Recipe r = recipe_for(key);
  TrainedModel m;
  m.net = make_by_key(key);
  m.train = make_train(r);
  m.test = make_test(r);

  const std::string path = cache_dir() + "/" + key + "_v1.weights";
  if (std::filesystem::exists(path)) {
    m.net.load(path);
  } else {
    DSZ_LOG_INFO << "training " << m.net.name() << " (" << r.epochs
                 << " epochs, " << r.train_n << " samples); cached at "
                 << path;
    nn::he_initialize(m.net, 0xBEEF + key.size());
    nn::SgdConfig cfg;
    cfg.lr = r.lr;
    cfg.momentum = 0.9;
    cfg.batch_size = r.batch;
    nn::Sgd sgd(cfg);
    util::Pcg32 rng(4242);
    const std::uint64_t t0 = obs::now_ns();
    for (int e = 0; e < r.epochs; ++e) {
      double loss = sgd.train_epoch(m.net, m.train.images, m.train.labels, rng);
      // Step decay over the last third of training stabilizes the final
      // weights (which the compression experiments perturb).
      if (e == (2 * r.epochs) / 3) sgd.set_lr(cfg.lr * 0.1);
      DSZ_LOG_INFO << key << " epoch " << (e + 1) << "/" << r.epochs
                   << " loss " << loss << " (" << static_cast<double>(obs::now_ns() - t0) / 1e9
                   << "s)";
    }
    m.net.save(path);
  }
  m.base = nn::evaluate(m.net, m.test.images, m.test.labels);
  return m;
}

}  // namespace deepsz::modelzoo
