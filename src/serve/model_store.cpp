#include "serve/model_store.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "baselines/codec_adapters.h"
#include "obs/trace.h"
#include "util/threadpool.h"

namespace deepsz::serve {

/// Rendezvous for callers that requested a layer already being decoded.
struct ModelStore::InFlight {
  util::Mutex m;
  util::CondVar cv;
  bool done DEEPSZ_GUARDED_BY(m) = false;
  std::shared_ptr<const ServedLayer> result DEEPSZ_GUARDED_BY(m);
  std::exception_ptr error DEEPSZ_GUARDED_BY(m);
};

ModelStore::ModelStore(std::vector<std::uint8_t> container,
                       ModelStoreOptions options)
    : container_(std::move(container)),
      options_(std::move(options)),
      reader_(container_) {
  if (reader_.is_delta()) {
    if (!options_.base_store) {
      throw std::runtime_error(
          "ModelStore: delta container requires base \"" + reader_.base_id() +
          "\" but no base store was provided");
    }
    // Aliasing shared_ptr: ownership of the base ModelStore (which owns the
    // base container bytes) travels with the reader pointer, so the base
    // chain stays alive for this store's lifetime even if the base model is
    // unloaded elsewhere mid-swap. set_base verifies the base's CRC.
    reader_.set_base(std::shared_ptr<const core::ContainerReader>(
        options_.base_store, &options_.base_store->reader()));
  } else if (options_.base_store) {
    throw std::runtime_error(
        "ModelStore: base store supplied for a non-delta container");
  }
  if (options_.shared_budget) options_.shared_budget->attach(this);
}

ModelStore::~ModelStore() {
  if (!options_.shared_budget) return;
  // Detach before uncharging: after detach() returns no rebalance() can be
  // holding this store as a victim, so the uncharge cannot double-count
  // against a concurrent eviction.
  options_.shared_budget->detach(this);
  util::MutexLock lock(mu_);
  options_.shared_budget->uncharge(stats_.cached_bytes);
}

std::shared_ptr<const ServedLayer> ModelStore::get(const std::string& name) {
  // Unknown names throw std::out_of_range before any cache bookkeeping.
  const std::size_t entry_index = reader_.index_of(name);

  // A kSame layer is bit-identical to the base's: forward to the base store
  // so the decoded entry is shared across the whole delta chain (one
  // residency, one budget charge). Counted as a hit here — this store ran
  // no codec; any decode cost lands in the base store's stats.
  if (reader_.entry(entry_index).kind == core::LayerKind::kSame) {
    if (!options_.base_store) {
      throw std::runtime_error("ModelStore: same-layer " + name +
                               " has no base store");
    }
    {
      util::MutexLock lock(mu_);
      ++stats_.hits;
    }
    return options_.base_store->get(name);
  }

  std::shared_ptr<InFlight> flight;
  bool owner = false;
  {
    util::MutexLock lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (options_.shared_budget) {
        it->second.stamp = options_.shared_budget->next_stamp();
      }
      return it->second.layer;
    }
    auto fit = in_flight_.find(name);
    if (fit != in_flight_.end()) {
      ++stats_.coalesced;
      flight = fit->second;
    } else {
      ++stats_.misses;
      flight = std::make_shared<InFlight>();
      in_flight_[name] = flight;
      owner = true;
    }
  }

  if (!owner) {
    util::MutexLock lock(flight->m);
    while (!flight->done) flight->cv.wait(flight->m);
    if (flight->error) std::rethrow_exception(flight->error);
    return flight->result;
  }

  // Decode outside mu_ so distinct layers decode concurrently. The decode
  // span (tagged with layer and form) is the parent of the lossless /
  // eb_decode / reconstruct phase spans the decode opens on this thread,
  // and stages them all under this store's model label.
  std::shared_ptr<const ServedLayer> layer;
  std::exception_ptr error;
  {
    obs::TraceSpan span("decode", "serve");
    span.set_detail(name);
    span.set_stage(options_.trace_label.empty() ? "store"
                                                : options_.trace_label);
    try {
      layer = decode_now(entry_index);
      span.set_phase(serving_form_name(layer->form));
    } catch (...) {
      error = std::current_exception();
      span.set_phase("error");
    }
  }

  {
    util::MutexLock lock(mu_);
    in_flight_.erase(name);
    if (layer) insert_and_evict_locked(name, layer);
  }
  {
    util::MutexLock lock(flight->m);
    flight->result = layer;
    flight->error = error;
    flight->done = true;
  }
  flight->cv.notify_all();

  if (error) std::rethrow_exception(error);
  // Cross-model pressure runs outside mu_ (rebalance locks the budget first,
  // then victim stores — possibly this one).
  if (options_.shared_budget) options_.shared_budget->rebalance();
  return layer;
}

std::shared_ptr<const ServedLayer> ModelStore::decode_now(
    std::size_t entry_index) {
  const core::ContainerEntry& e = reader_.entry(entry_index);
  if (e.kind == core::LayerKind::kDelta) return decode_delta_now(entry_index);
  // Codebook serving applies to full records only: a delta record's data
  // stream holds the residual, not a dc payload.
  if (options_.native_form && e.kind == core::LayerKind::kFull &&
      native_form_for_codec_spec(e.data.codec) == ServingForm::kCodebookCsr) {
    return decode_codebook_now(entry_index);
  }
  return make_served_dense(entry_index, reader_.decode_layer(entry_index));
}

std::shared_ptr<const ServedLayer> ModelStore::decode_delta_now(
    std::size_t entry_index) {
  const core::ContainerEntry& e = reader_.entry(entry_index);

  // Warm hot-swap path: when the base layer is already resident in a dense
  // form, rebuild the base's two-array representation from it — the dense
  // matrix is an exact scatter of the data array at strictly-increasing
  // positions, so gathering dense[pos_i] over the base's (cheap, lossless)
  // index deltas is bit-exact — and apply the delta to that, skipping the
  // base's error-bounded decode entirely. The record's base CRC pins verify
  // the rebuilt arrays before the delta is applied. Walk kSame references
  // down the chain to the full record that owns the index stream; a kDelta
  // base or a codebook/non-resident base falls back to the cold full-chain
  // decode below.
  if (options_.base_store) {
    auto resident = options_.base_store->peek(e.name);
    const core::ContainerReader* br = &options_.base_store->reader();
    while (br->contains(e.name) &&
           br->entry(e.name).kind == core::LayerKind::kSame && br->base()) {
      br = br->base();
    }
    if (resident && !resident->dense.empty() && br->contains(e.name) &&
        br->entry(e.name).kind == core::LayerKind::kFull) {
      auto deltas = br->decode_index_stream(br->index_of(e.name));
      sparse::PrunedLayer base_layer;
      base_layer.name = e.name;
      base_layer.rows = resident->rows;
      base_layer.cols = resident->cols;
      base_layer.data.reserve(deltas.size());
      sparse::for_each_position(
          deltas, resident->rows, resident->cols, e.name,
          [&](std::size_t, std::size_t pos, std::size_t, std::uint32_t) {
            base_layer.data.push_back(resident->dense[pos]);
          });
      base_layer.index = std::move(deltas);
      return make_served_dense(entry_index,
                               reader_.apply_delta(entry_index, base_layer));
    }
  }

  return make_served_dense(entry_index, reader_.decode_layer(entry_index));
}

std::shared_ptr<const ServedLayer> ModelStore::make_served_dense(
    std::size_t entry_index, const sparse::PrunedLayer& sparse_layer) {
  auto served = std::make_shared<ServedLayer>();
  core::DecodePhaseSpan reconstruct("reconstruct", sparse_layer.name);
  served->name = sparse_layer.name;
  served->rows = sparse_layer.rows;
  served->cols = sparse_layer.cols;
  const std::vector<float>& data = sparse_layer.data;
  if (data.size() != sparse_layer.index.size()) {
    throw std::runtime_error("PrunedLayer: data/index length mismatch");
  }
  // One walk fills the dense matrix and, with build_csr, the CSR view for
  // the sparse batched forward. An entry joins the view iff its value is
  // nonzero: positions strictly increase, so that is exactly the set, in the
  // same row-major order, that a scan of the dense matrix would keep.
  // Fillers carry 0.0f (or an SZ reconstruction thereof) and land on zero
  // positions; writing them to the dense matrix is harmless.
  const bool csr = options_.build_csr;
  if (csr) {
    const auto nnz = static_cast<std::size_t>(std::count_if(
        data.begin(), data.end(), [](float v) { return v != 0.0f; }));
    served->csr_rowptr.assign(static_cast<std::size_t>(served->rows) + 1, 0);
    served->csr_col.reserve(nnz);
    served->csr_val.reserve(nnz);
  }
  served->dense.assign(
      static_cast<std::size_t>(served->rows * served->cols), 0.0f);
  float* dense = served->dense.data();
  sparse::for_each_position(
      sparse_layer.index, served->rows, served->cols, sparse_layer.name,
      [&](std::size_t i, std::size_t pos, std::size_t row, std::uint32_t col) {
        const float v = data[i];
        dense[pos] = v;
        if (!csr || v == 0.0f) return;
        served->csr_col.push_back(col);
        served->csr_val.push_back(v);
        ++served->csr_rowptr[row + 1];
      });
  for (std::size_t r = 1; r < served->csr_rowptr.size(); ++r) {
    served->csr_rowptr[r] += served->csr_rowptr[r - 1];
  }
  served->bias = reader_.decode_bias(entry_index);
  served->form = served->has_csr() ? ServingForm::kSparseCsr
                                   : ServingForm::kDenseF32;
  return served;
}

std::shared_ptr<const ServedLayer> ModelStore::decode_codebook_now(
    std::size_t entry_index) {
  const core::ContainerEntry& e = reader_.entry(entry_index);
  auto served = std::make_shared<ServedLayer>();

  // The index stream decodes to the paper's position deltas; the data stream
  // is a "dc" payload whose Huffman coding we undo ONCE here — the codebook
  // is never applied, so the layer stays at id width instead of f32.
  auto deltas = reader_.decode_index_stream(entry_index);
  core::DecodePhaseSpan eb_decode("eb_decode", e.name);
  auto q =
      baselines::dc_decode_quantized(reader_.checked_data_stream(entry_index));
  eb_decode.close();
  if (q.ids.size() != deltas.size()) {
    throw std::runtime_error(
        "ModelStore: dc data/index entry count mismatch in " + e.name);
  }

  core::DecodePhaseSpan reconstruct("reconstruct", e.name);
  served->form = ServingForm::kCodebookCsr;
  served->name = e.name;
  served->rows = e.rows;
  served->cols = e.cols;
  served->codebook = std::move(q.codebook);
  served->bias = reader_.decode_bias(entry_index);
  // A codebook layer is bound straight into the forward kernel with no dense
  // fallback, so a bias of the wrong length is unservable — hard error here
  // (the dense path tolerates it because callers can rebind).
  if (!served->bias.empty() &&
      served->bias.size() != static_cast<std::size_t>(e.rows)) {
    throw std::runtime_error("ModelStore: bias length " +
                             std::to_string(served->bias.size()) +
                             " != rows " + std::to_string(e.rows) +
                             " for codebook layer " + e.name);
  }

  // Walk the deltas exactly like PrunedLayer::to_dense, keeping an entry iff
  // its centroid is nonzero — the same set the kSparseCsr walk keeps, so the
  // codebook form is bit-identical in content to the kSparseCsr view of the
  // same layer.
  const bool narrow = served->codebook.size() <= 256;
  served->csr_rowptr.assign(static_cast<std::size_t>(e.rows) + 1, 0);
  sparse::for_each_position(
      deltas, e.rows, e.cols, e.name,
      [&](std::size_t i, std::size_t, std::size_t row, std::uint32_t col) {
        const std::uint32_t id = q.ids[i];
        if (served->codebook[id] == 0.0f) return;  // filler or zero centroid
        served->csr_col.push_back(col);
        if (narrow) {
          served->csr_id8.push_back(static_cast<std::uint8_t>(id));
        } else {
          served->csr_id16.push_back(static_cast<std::uint16_t>(id));
        }
        ++served->csr_rowptr[row + 1];
      });
  for (std::size_t r = 1; r < served->csr_rowptr.size(); ++r) {
    served->csr_rowptr[r] += served->csr_rowptr[r - 1];
  }
  return served;
}

void ModelStore::insert_and_evict_locked(
    const std::string& name, std::shared_ptr<const ServedLayer> layer) {
  const std::size_t layer_bytes = layer->bytes();
  const auto form_ix = static_cast<std::size_t>(layer->form);
  lru_.push_front(name);
  const std::uint64_t stamp =
      options_.shared_budget ? options_.shared_budget->next_stamp() : 0;
  cache_[name] = CacheEntry{std::move(layer), lru_.begin(), stamp};
  stats_.cached_bytes += layer_bytes;
  stats_.form_bytes[form_ix] += layer_bytes;
  stats_.cached_layers = cache_.size();
  if (options_.shared_budget) options_.shared_budget->charge(layer_bytes);

  // Evict from the LRU tail until the budget holds. A single layer larger
  // than the whole budget evicts itself: it was still served, just never
  // retained.
  while (stats_.cached_bytes > options_.cache_budget_bytes && !lru_.empty()) {
    evict_tail_locked();
  }
  stats_.cached_layers = cache_.size();
}

std::size_t ModelStore::evict_tail_locked() {
  // Requires a non-empty LRU.
  const std::string victim = lru_.back();
  auto it = cache_.find(victim);
  const std::size_t bytes = it->second.layer->bytes();
  stats_.cached_bytes -= bytes;
  stats_.form_bytes[static_cast<std::size_t>(it->second.layer->form)] -= bytes;
  cache_.erase(it);
  lru_.pop_back();
  ++stats_.evictions;
  stats_.cached_layers = cache_.size();
  if (options_.shared_budget) options_.shared_budget->uncharge(bytes);
  return bytes;
}

std::optional<std::uint64_t> ModelStore::oldest_stamp() const {
  util::MutexLock lock(mu_);
  if (lru_.empty()) return std::nullopt;
  return cache_.at(lru_.back()).stamp;
}

std::size_t ModelStore::evict_lru_one() {
  util::MutexLock lock(mu_);
  if (lru_.empty()) return 0;
  return evict_tail_locked();
}

std::shared_ptr<const ServedLayer> ModelStore::peek(
    const std::string& name) const {
  // kSame layers live in the base store's cache, not this one.
  if (options_.base_store && reader_.contains(name) &&
      reader_.entry(name).kind == core::LayerKind::kSame) {
    return options_.base_store->peek(name);
  }
  util::MutexLock lock(mu_);
  auto it = cache_.find(name);
  return it != cache_.end() ? it->second.layer : nullptr;
}

void ModelStore::warmup(bool parallel) {
  const std::size_t n = reader_.num_layers();
  if (!parallel || n < 2) {
    for (std::size_t i = 0; i < n; ++i) get(reader_.entry(i).name);
    return;
  }
  // Exceptions must not escape pool tasks; surface the first one here.
  std::vector<std::exception_ptr> errors(n);
  util::parallel_for(0, n, [&](std::size_t i) {
    try {
      get(reader_.entry(i).name);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void ModelStore::evict_all() {
  util::MutexLock lock(mu_);
  stats_.evictions += cache_.size();
  if (options_.shared_budget) {
    options_.shared_budget->uncharge(stats_.cached_bytes);
  }
  cache_.clear();
  lru_.clear();
  stats_.cached_bytes = 0;
  stats_.cached_layers = 0;
  stats_.form_bytes = {};
}

CacheStats ModelStore::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void ModelStore::reset_stats() {
  util::MutexLock lock(mu_);
  const std::size_t bytes = stats_.cached_bytes;
  const std::size_t layers = stats_.cached_layers;
  const auto form_bytes = stats_.form_bytes;
  stats_ = CacheStats{};
  stats_.cached_bytes = bytes;
  stats_.cached_layers = layers;
  stats_.form_bytes = form_bytes;
}

}  // namespace deepsz::serve
