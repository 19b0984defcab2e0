#include "dse/accuracy_proxy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "quant/apsq.hpp"
#include "quant/psum_calib.hpp"

namespace apsq::dse {

namespace {

// Proxy tile geometry: small enough to keep a full sweep cheap. The
// relative-MSE estimate is not seed-stable at this size: across the 8
// scoring seeds 0xD5E–0xD65, the error of each of the 200 non-zero
// paper-space keys has a coefficient of variation (population std / mean)
// of 13% on average and up to 49%; the 400 non-zero fine-space keys
// spread the same (13% / 49%).
constexpr index_t kTileRows = 16;
constexpr index_t kTileCols = 16;
constexpr index_t kMaxTiles = 256;   // caps np for very deep accumulations
constexpr index_t kMaxLayers = 4;

// FNV-1a, so stream indices are stable across standard libraries
// (std::hash makes no such promise).
u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Representative layers: largest-MAC first, distinct accumulation depths
/// (ci), deterministic tie-break on layer order.
std::vector<const LayerShape*> representative_layers(const Workload& w) {
  std::vector<size_t> order(w.layers.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return w.layers[a].macs() > w.layers[b].macs();
  });
  std::vector<const LayerShape*> picked;
  std::vector<index_t> seen_ci;
  for (size_t i : order) {
    const LayerShape& l = w.layers[i];
    if (std::find(seen_ci.begin(), seen_ci.end(), l.ci) != seen_ci.end())
      continue;
    picked.push_back(&l);
    seen_ci.push_back(l.ci);
    if (static_cast<index_t>(picked.size()) == kMaxLayers) break;
  }
  return picked;
}

bool exact_storage(const PsumConfig& psum) {
  return !psum.apsq && psum.psum_bits >= 32;
}

/// Tiles a query accumulates on `layer`; 0 when it needs no scoring.
index_t tile_count(const LayerShape& layer, const ProxyQuery& q) {
  if (exact_storage(q.psum)) return 0;
  return std::min<index_t>(kMaxTiles,
                           std::max<index_t>(1, (layer.ci + q.pci - 1) / q.pci));
}

/// Sort `counts` ascending and drop repeats: the list accumulate_psums takes.
void make_distinct(std::vector<index_t>& counts) {
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
}

}  // namespace

ProxyBatch::ProxyBatch(const Workload& w, std::vector<ProxyQuery> queries,
                       u64 seed)
    : w_(w), queries_(std::move(queries)), seed_(seed) {
  bool any_scored = false;
  for (const ProxyQuery& q : queries_) {
    APSQ_CHECK(q.pci > 0);
    q.psum.validate();
    any_scored = any_scored || !exact_storage(q.psum);
  }
  if (!any_scored) return;  // every answer is exactly 0
  layers_ = representative_layers(w_);
  APSQ_CHECK_MSG(!layers_.empty(), "workload has no layers");
  mse_.assign(layers_.size(), std::vector<double>(queries_.size(), 0.0));
}

void ProxyBatch::score_layer(size_t l) {
  APSQ_CHECK(l < layers_.size());
  const LayerShape& layer = *layers_[l];
  std::vector<index_t> np(queries_.size());
  std::vector<index_t> counts;  // the distinct tile counts, ascending
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    np[qi] = tile_count(layer, queries_[qi]);
    if (np[qi] > 0) counts.push_back(np[qi]);
  }
  make_distinct(counts);
  if (counts.empty()) return;
  const auto row_of = [](const std::vector<index_t>& c, index_t n) {
    return static_cast<size_t>(std::lower_bound(c.begin(), c.end(), n) -
                               c.begin());
  };

  // The tile stream depends only on (seed, workload, layer) — every PSUM
  // config is scored against identical inputs, a prefix of this one.
  constexpr index_t kTileElems = kTileRows * kTileCols;
  constexpr size_t kRow = static_cast<size_t>(kTileElems);
  Rng rng = Rng::stream(seed_, fnv1a(w_.name + "/" + layer.name) ^
                                   static_cast<u64>(layer.ci));
  std::vector<float> stream(static_cast<size_t>(counts.back() * kTileElems));
  for (float& v : stream) v = static_cast<float>(rng.normal(0.0, 8.0));

  // Exact accumulation of every distinct prefix the batch reads, in one
  // pass: row k holds the first counts[k] tiles.
  std::vector<float> exact(counts.size() * kRow);
  accumulate_psums(stream.data(), counts, kTileElems, PsumMode::kExact,
                   QuantSpec::int8(), {1.0}, 1, exact.data());

  // Queries that run the same arithmetic on the stream — equal (mode,
  // bits, group size, α) — share one pass up to their largest tile count
  // and each reads its own prefix's row. PSQ ignores the group size.
  struct Pass {
    PsumMode mode;
    int bits;
    index_t group_size;
    double alpha;
    std::vector<size_t> queries;
  };
  std::vector<Pass> passes;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (np[qi] == 0) continue;
    const PsumConfig& psum = queries_[qi].psum;
    const float* x = exact.data() + row_of(counts, np[qi]) * kRow;
    // Power-of-two scale calibrated on the final accumulated range,
    // exactly as QuantDense does for the QAT path (see quant_dense.cpp).
    const QuantSpec spec{psum.psum_bits, true};
    double max_out = 0.0;
    for (size_t e = 0; e < kRow; ++e)
      max_out = std::max(max_out, std::fabs(static_cast<double>(x[e])));
    PsumScaleCalibrator calib(spec, 0.0);
    calib.observe_abs_max(max_out);
    const double alpha = std::exp2(calib.exponent());

    const PsumMode mode = psum.apsq ? PsumMode::kApsq : PsumMode::kPsq;
    const index_t gs = psum.apsq ? psum.group_size : 1;
    auto pass = std::find_if(passes.begin(), passes.end(), [&](const Pass& p) {
      return p.mode == mode && p.bits == psum.psum_bits &&
             p.group_size == gs && p.alpha == alpha;
    });
    if (pass == passes.end()) {
      passes.push_back(Pass{mode, psum.psum_bits, gs, alpha, {}});
      pass = passes.end() - 1;
    }
    pass->queries.push_back(qi);
  }

  std::vector<index_t> pass_counts;
  std::vector<float> approx;
  for (const Pass& pass : passes) {
    pass_counts.clear();
    for (const size_t qi : pass.queries) pass_counts.push_back(np[qi]);
    make_distinct(pass_counts);
    approx.resize(pass_counts.size() * kRow);
    accumulate_psums(stream.data(), pass_counts, kTileElems, pass.mode,
                     QuantSpec{pass.bits, true}, {pass.alpha}, pass.group_size,
                     approx.data());
    for (const size_t qi : pass.queries) {
      const float* x = exact.data() + row_of(counts, np[qi]) * kRow;
      const float* a = approx.data() + row_of(pass_counts, np[qi]) * kRow;
      double num = 0.0, den = 0.0;
      for (size_t e = 0; e < kRow; ++e) {
        const double xe = static_cast<double>(x[e]);
        const double d = static_cast<double>(a[e]) - xe;
        num += d * d;
        den += xe * xe;
      }
      mse_[l][qi] = den > 0.0 ? num / den : 0.0;
    }
  }
}

std::vector<double> ProxyBatch::results() const {
  std::vector<double> out(queries_.size(), 0.0);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (exact_storage(queries_[qi].psum)) continue;
    double sum = 0.0;
    for (const std::vector<double>& layer : mse_) sum += layer[qi];
    out[qi] = sum / static_cast<double>(layers_.size());
  }
  return out;
}

std::vector<double> psum_error_proxies(const Workload& w,
                                       const std::vector<ProxyQuery>& queries,
                                       u64 seed) {
  ProxyBatch batch(w, queries, seed);
  for (size_t l = 0; l < batch.layer_count(); ++l) batch.score_layer(l);
  return batch.results();
}

double psum_error_proxy(const Workload& w, const PsumConfig& psum,
                        index_t pci, u64 seed) {
  return psum_error_proxies(w, {ProxyQuery{psum, pci}}, seed)[0];
}

}  // namespace apsq::dse
