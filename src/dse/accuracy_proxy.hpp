// Quantization-error accuracy proxy for the DSE engine.
//
// Training the QAT proxies (bench_accuracy.hpp) per design point is hours
// of work per sweep; the DSE objective instead scores a PSUM config by the
// relative mean-squared reconstruction error of tile-based accumulation —
// the same signal Fig. 5 shows tracking task accuracy: error grows as
// PSUM bits drop and falls as the APSQ group size grows. Synthetic PSUM
// tile streams are drawn per (workload, layer) from Rng::stream, so the
// proxy is a pure function of (workload, psum, pci, seed) — evaluation
// order and thread count never change it.
//
// Scoring is a batch computation. A layer's tile stream depends only on
// (seed, workload, layer), and a query with tile count np reads the first
// np tiles of it, so a batch draws each representative layer's stream
// once, up to the largest np among its queries, and scores every query on
// its prefix in shared passes: one exact pass yields the reference sum of
// every distinct np, and the queries that run the same arithmetic —
// equal (mode, PSUM bits, group size, α), α calibrated on the query's
// exact sum — share one pass up to their largest np, each reading the
// output at its own np (accumulate_psums with a list of tile counts).
// Batch contract:
//   - a query's result depends only on (workload, psum, pci, seed), never
//     on what else is in the batch, its order, or duplicates — equal bit
//     for bit to a batch of one (psum_error_proxy);
//   - memory: one layer's stream lives only while that layer is scored
//     (score_layer frees it on return), at most kMaxTiles 16×16 float
//     tiles = 256 KB per layer being scored; nothing outlives the batch.
#pragma once

#include <vector>

#include "energy/layer_shape.hpp"
#include "energy/psum_config.hpp"

namespace apsq::dse {

/// One proxy query: a PSUM config at PE-array input-channel parallelism
/// `pci`, which sets the tile count np = ceil(ci / pci), matching the
/// hardware's ci-dimension tiling.
struct ProxyQuery {
  PsumConfig psum;
  index_t pci = 0;
};

/// A batch of queries against one workload, split into one unit of work
/// per representative layer (up to four largest-MAC layers with distinct
/// accumulation depths), so callers can score the layers in parallel.
class ProxyBatch {
 public:
  /// Checks every query (pci > 0, a valid PSUM config). `w` must outlive
  /// the batch.
  ProxyBatch(const Workload& w, std::vector<ProxyQuery> queries, u64 seed);

  size_t layer_count() const { return layers_.size(); }

  /// Draw representative layer `l`'s tile stream, score every query on
  /// its prefix and free the stream. Distinct layers may be scored
  /// concurrently.
  void score_layer(size_t l);

  /// Per query, in query order: the relative MSE averaged over the
  /// layers, summed in layer order. Valid once every layer is scored.
  std::vector<double> results() const;

 private:
  const Workload& w_;
  std::vector<ProxyQuery> queries_;
  u64 seed_;
  std::vector<const LayerShape*> layers_;
  std::vector<std::vector<double>> mse_;  ///< [layer][query]
};

/// Relative MSE of the accumulated output versus exact accumulation,
/// averaged over the representative layers, for every query (results in
/// query order). Full-precision configs (>= 32-bit storage, no APSQ)
/// score exactly 0.
std::vector<double> psum_error_proxies(const Workload& w,
                                       const std::vector<ProxyQuery>& queries,
                                       u64 seed);

/// A batch of one.
double psum_error_proxy(const Workload& w, const PsumConfig& psum,
                        index_t pci, u64 seed);

}  // namespace apsq::dse
