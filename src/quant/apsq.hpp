// APSQ — Additive Partial Sum Quantization (paper §III-A, Eq. 10) and the
// reference PSUM-handling modes it is compared against.
//
//   Exact : To = Σ Tp_i in full precision (the INT32-PSUM baseline).
//   PSQ   : each Tp_i is quantized independently (prior work [19], [20]);
//           storage is low-bit, accumulation happens on dequantized values.
//   APSQ  : AP_i = Q_k(Tp_i + α_{i-1}·AP_{i-1})  — every stored value is a
//           low-bit code AND the quantizer sees the accumulated history.
//
// All three are float/double *references*; the integer (shift-based)
// hardware path lives in apsq_int.hpp and must agree bit-for-bit with
// these for power-of-two scales.
#pragma once

#include <vector>

#include "quant/quant_params.hpp"
#include "tensor/tensor.hpp"

namespace apsq {

/// How partial sums are treated during tile-based accumulation.
enum class PsumMode {
  kExact,  ///< full-precision PSUM (baseline)
  kPsq,    ///< independent per-tile PSUM quantization (prior work)
  kApsq,   ///< additive PSUM quantization, Eq. (10) / Algorithm 1
};

const char* to_string(PsumMode mode);

/// Streaming Eq. (10) accumulator (pure APSQ, i.e. group size 1).
///
/// Push the np PSUM tiles Tp_0 … Tp_{np-1} in order; `output()` then
/// returns To = α_{np-1} · AP_{np-1}. Scales may differ per tile.
class ApsqAccumulator {
 public:
  /// `scales[i]` is α_i; pass a single-element vector to broadcast.
  ApsqAccumulator(Shape tile_shape, QuantSpec spec, std::vector<double> scales,
                  index_t num_tiles);

  void push(const TensorF& tp);

  /// Dequantized output tile; valid only after num_tiles pushes.
  TensorF output() const;

  /// Current stored low-bit codes (what would sit in the ofmap buffer).
  const TensorI32& stored_codes() const { return codes_; }

  index_t tiles_pushed() const { return pushed_; }
  index_t num_tiles() const { return num_tiles_; }
  double scale_for(index_t i) const;

 private:
  Shape tile_shape_;
  QuantSpec spec_;
  std::vector<double> scales_;
  index_t num_tiles_ = 0;
  index_t pushed_ = 0;
  TensorI32 codes_;  ///< AP*_{pushed_-1}
};

/// Independent per-tile PSUM quantization (PSQ, prior work): each tile is
/// quantized for storage, then dequantized and accumulated exactly.
class PsqAccumulator {
 public:
  PsqAccumulator(Shape tile_shape, QuantSpec spec, std::vector<double> scales,
                 index_t num_tiles);

  void push(const TensorF& tp);
  TensorF output() const;
  index_t tiles_pushed() const { return pushed_; }

 private:
  Shape tile_shape_;
  QuantSpec spec_;
  std::vector<double> scales_;
  index_t num_tiles_ = 0;
  index_t pushed_ = 0;
  TensorD acc_;
};

/// Run a whole tile sequence through a mode and write To. The tiles are
/// one contiguous block: tile i is tiles[i·tile_numel, (i+1)·tile_numel).
/// kExact is the exact double sum, kPsq equals PsqAccumulator and kApsq
/// equals GroupedApsq (group_size 1 is ApsqAccumulator) element for
/// element: the same double arithmetic in the same order, as flat loops
/// with one scratch row and no per-tile allocation. `scales` holds one
/// α per tile or a single broadcast α; for kExact, `spec`/`scales` are
/// ignored. The quantized modes need a grid that fits int32 codes.
void accumulate_psums(const float* tiles, index_t num_tiles, index_t tile_numel,
                      PsumMode mode, const QuantSpec& spec,
                      const std::vector<double>& scales, index_t group_size,
                      float* out);

/// The same for several prefixes of one block in one pass: `counts` is a
/// strictly ascending list of tile counts, and row k of `out`
/// (out[k·tile_numel, (k+1)·tile_numel)) receives To of the first
/// counts[k] tiles, bit-equal to a separate call with num_tiles =
/// counts[k] (and, for per-tile scales, the first counts[k] of them).
/// `scales` holds one α per tile of the longest prefix or a broadcast α.
/// For kApsq, a prefix whose last tile is not a group leader ends on a
/// fold of the live group; that fold is written to its row only, and the
/// longer run goes on with the tile as a plain group member.
void accumulate_psums(const float* tiles, const std::vector<index_t>& counts,
                      index_t tile_numel, PsumMode mode, const QuantSpec& spec,
                      const std::vector<double>& scales, index_t group_size,
                      float* out);

/// The same over a list of equal-shape tiles, returning To.
TensorF accumulate_psums(const std::vector<TensorF>& tiles, PsumMode mode,
                         const QuantSpec& spec, const std::vector<double>& scales,
                         index_t group_size = 1);

}  // namespace apsq
