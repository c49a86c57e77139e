#include "nn/network.h"

#include <cstdio>
#include <stdexcept>

namespace deepsz::nn {

namespace {
constexpr std::uint32_t kModelMagic = 0x4d5a5344;  // "DSZM"
}

Layer* Network::add_layer(std::unique_ptr<Layer> layer) {
  layers_.push_back(std::move(layer));
  return layers_.back().get();
}

Tensor Network::forward(const Tensor& x, bool train) {
  Tensor cur = x;
  for (auto& layer : layers_) {
    cur = layer->forward(cur, train);
  }
  return cur;
}

void Network::backward(const Tensor& dloss) {
  std::size_t first = 0;
  while (first < layers_.size() && layers_[first]->params().empty()) ++first;
  if (first == layers_.size()) return;  // nothing to train
  Tensor cur = dloss;
  for (std::size_t i = layers_.size() - 1; i > first; --i) {
    cur = layers_[i]->backward(cur);
  }
  layers_[first]->backward_params(cur);
}

std::vector<Dense*> Network::dense_layers() {
  std::vector<Dense*> out;
  for (auto& layer : layers_) {
    if (auto* d = dynamic_cast<Dense*>(layer.get())) {
      out.push_back(d);
    }
  }
  return out;
}

Dense* Network::find_dense(const std::string& name) {
  for (auto* d : dense_layers()) {
    if (d->name() == name) return d;
  }
  return nullptr;
}

std::vector<Tensor*> Network::params() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Network::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::int64_t Network::param_count() {
  std::int64_t n = 0;
  for (auto* p : params()) n += p->numel();
  return n;
}

void Network::save(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) throw std::runtime_error("Network::save: cannot open " + path);
  std::uint32_t magic = kModelMagic;
  std::fwrite(&magic, sizeof(magic), 1, f);
  auto ps = params();
  std::uint64_t count = ps.size();
  std::fwrite(&count, sizeof(count), 1, f);
  for (auto* p : ps) {
    std::uint64_t numel = static_cast<std::uint64_t>(p->numel());
    std::fwrite(&numel, sizeof(numel), 1, f);
    std::fwrite(p->data(), sizeof(float), numel, f);
  }
  std::fclose(f);
}

void Network::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw std::runtime_error("Network::load: cannot open " + path);
  auto fail = [&](const char* msg) {
    std::fclose(f);
    throw std::runtime_error(std::string("Network::load: ") + msg);
  };
  std::uint32_t magic = 0;
  if (std::fread(&magic, sizeof(magic), 1, f) != 1 || magic != kModelMagic) {
    fail("bad magic");
  }
  auto ps = params();
  std::uint64_t count = 0;
  if (std::fread(&count, sizeof(count), 1, f) != 1 || count != ps.size()) {
    fail("parameter tensor count mismatch");
  }
  for (auto* p : ps) {
    std::uint64_t numel = 0;
    if (std::fread(&numel, sizeof(numel), 1, f) != 1 ||
        numel != static_cast<std::uint64_t>(p->numel())) {
      fail("parameter shape mismatch");
    }
    if (std::fread(p->data(), sizeof(float), numel, f) != numel) {
      fail("truncated file");
    }
  }
  std::fclose(f);
}

}  // namespace deepsz::nn
