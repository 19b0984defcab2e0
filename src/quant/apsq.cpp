#include "quant/apsq.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/math_util.hpp"
#include "quant/uniform.hpp"

namespace apsq {

const char* to_string(PsumMode mode) {
  switch (mode) {
    case PsumMode::kExact: return "exact";
    case PsumMode::kPsq: return "psq";
    case PsumMode::kApsq: return "apsq";
  }
  return "?";
}

namespace {

/// One positive α per tile, or a single broadcast α.
void check_scale_count(const std::vector<double>& scales, index_t num_tiles) {
  APSQ_CHECK(num_tiles > 0);
  APSQ_CHECK_MSG(!scales.empty(), "at least one scaling factor required");
  APSQ_CHECK_MSG(scales.size() == 1 || static_cast<index_t>(scales.size()) == num_tiles,
                 "scale count " << scales.size() << " != num_tiles " << num_tiles);
  for (double a : scales) APSQ_CHECK_MSG(a > 0.0, "scales must be positive");
}

std::vector<double> check_scales(std::vector<double> scales, index_t num_tiles) {
  check_scale_count(scales, num_tiles);
  if (scales.size() == 1) scales.assign(static_cast<size_t>(num_tiles), scales[0]);
  return scales;
}

/// quantize_code(x, α) on a grid that fits int32, for every finite x.
/// Clamping y = x/α to [Qn, Qp] before rounding gives the same code as
/// clipping after it (the bounds are integers), and keeps y ± 0.5 inside
/// int32, where the truncating conversion is trunc(): trunc(y ± 0.5) is
/// round_half_away's floor(y + 0.5) / ceil(y - 0.5) on the same sum. No
/// libm call, so the element loops below vectorize.
inline i32 clamped_code(double x, double alpha, double qmin, double qmax) {
  const double y = std::min(std::max(x / alpha, qmin), qmax);
  return static_cast<i32>(y + std::copysign(0.5, y));
}

}  // namespace

ApsqAccumulator::ApsqAccumulator(Shape tile_shape, QuantSpec spec,
                                 std::vector<double> scales, index_t num_tiles)
    : tile_shape_(std::move(tile_shape)),
      spec_(spec),
      scales_(check_scales(std::move(scales), num_tiles)),
      num_tiles_(num_tiles),
      codes_(tile_shape_, 0) {}

double ApsqAccumulator::scale_for(index_t i) const {
  APSQ_CHECK(i >= 0 && i < num_tiles_);
  return scales_[static_cast<size_t>(i)];
}

void ApsqAccumulator::push(const TensorF& tp) {
  APSQ_CHECK_MSG(pushed_ < num_tiles_, "more tiles pushed than declared");
  APSQ_CHECK_MSG(tp.shape() == tile_shape_, "tile shape mismatch");
  const double alpha_i = scale_for(pushed_);
  const double alpha_prev = pushed_ > 0 ? scale_for(pushed_ - 1) : 0.0;
  for (index_t e = 0; e < tp.numel(); ++e) {
    // Eq. (10): AP_i = Q_k(Tp_i + α_{i-1} · AP_{i-1});  AP_0 = Q_k(Tp_0).
    const double history =
        pushed_ > 0 ? alpha_prev * static_cast<double>(codes_[e]) : 0.0;
    codes_[e] = static_cast<i32>(
        quantize_code(static_cast<double>(tp[e]) + history, alpha_i, spec_));
  }
  ++pushed_;
}

TensorF ApsqAccumulator::output() const {
  APSQ_CHECK_MSG(pushed_ == num_tiles_,
                 "output requested after " << pushed_ << " of " << num_tiles_
                                           << " tiles");
  const double alpha_last = scale_for(num_tiles_ - 1);
  TensorF out(tile_shape_);
  for (index_t e = 0; e < out.numel(); ++e)
    out[e] = static_cast<float>(alpha_last * static_cast<double>(codes_[e]));
  return out;
}

PsqAccumulator::PsqAccumulator(Shape tile_shape, QuantSpec spec,
                               std::vector<double> scales, index_t num_tiles)
    : tile_shape_(std::move(tile_shape)),
      spec_(spec),
      scales_(check_scales(std::move(scales), num_tiles)),
      num_tiles_(num_tiles),
      acc_(tile_shape_, 0.0) {}

void PsqAccumulator::push(const TensorF& tp) {
  APSQ_CHECK_MSG(pushed_ < num_tiles_, "more tiles pushed than declared");
  APSQ_CHECK_MSG(tp.shape() == tile_shape_, "tile shape mismatch");
  const double alpha = scales_[static_cast<size_t>(pushed_)];
  for (index_t e = 0; e < tp.numel(); ++e)
    acc_[e] += fake_quantize(static_cast<double>(tp[e]), alpha, spec_);
  ++pushed_;
}

TensorF PsqAccumulator::output() const {
  APSQ_CHECK(pushed_ == num_tiles_);
  TensorF out(tile_shape_);
  for (index_t e = 0; e < out.numel(); ++e)
    out[e] = static_cast<float>(acc_[e]);
  return out;
}

void accumulate_psums(const float* tiles, const std::vector<index_t>& counts,
                      index_t tile_numel, PsumMode mode, const QuantSpec& spec,
                      const std::vector<double>& scales, index_t group_size,
                      float* out) {
  APSQ_CHECK(!counts.empty() && counts.front() > 0 && tile_numel >= 0);
  for (size_t k = 1; k < counts.size(); ++k)
    APSQ_CHECK_MSG(counts[k - 1] < counts[k],
                   "tile counts must be strictly ascending");
  const index_t num_tiles = counts.back();
  const size_t n = static_cast<size_t>(tile_numel);
  // The exact sum, the PSQ sum of dequantized tiles, or (APSQ) the
  // dequantized sum of the live group's stored tiles — in each case the
  // value the streaming class holds after the same pushes.
  std::vector<double> acc_row(n, 0.0);
  double* acc = acc_row.data();
  const auto tile = [&](index_t i) { return tiles + static_cast<size_t>(i) * n; };
  // Row k of `out` is the prefix of counts[k] tiles; `next` is the first
  // count not yet written.
  size_t next = 0;
  const auto emit = [&] {
    float* o = out + next * n;
    for (size_t e = 0; e < n; ++e) o[e] = static_cast<float>(acc[e]);
    ++next;
  };

  if (mode == PsumMode::kExact) {
    for (index_t i = 0; i < num_tiles; ++i) {
      const float* tp = tile(i);
      for (size_t e = 0; e < n; ++e) acc[e] += static_cast<double>(tp[e]);
      if (i + 1 == counts[next]) emit();
    }
    return;
  }
  check_scale_count(scales, num_tiles);
  APSQ_CHECK_MSG(spec.qmax() <= std::numeric_limits<i32>::max(),
                 "PSUM grid must fit int32 codes");
  const double qmin = static_cast<double>(spec.qmin());
  const double qmax = static_cast<double>(spec.qmax());
  const auto scale = [&](index_t i) {
    return scales.size() == 1 ? scales[0] : scales[static_cast<size_t>(i)];
  };
  if (mode == PsumMode::kPsq) {
    for (index_t i = 0; i < num_tiles; ++i) {
      const double alpha = scale(i);
      const float* tp = tile(i);
      for (size_t e = 0; e < n; ++e)
        acc[e] += alpha * static_cast<double>(clamped_code(
                              static_cast<double>(tp[e]), alpha, qmin, qmax));
      if (i + 1 == counts[next]) emit();
    }
    return;
  }
  APSQ_CHECK_MSG(group_size >= 1, "group size gs must be >= 1");
  for (index_t i = 0; i < num_tiles; ++i) {
    const double alpha = scale(i);
    const float* tp = tile(i);
    const bool ends_prefix = i + 1 == counts[next];
    if (i % group_size == 0 || i == num_tiles - 1) {
      // Leader or final tile: fold the live group into the quantizer
      // input; the new code is the group's only live tile.
      for (size_t e = 0; e < n; ++e)
        acc[e] = alpha * static_cast<double>(clamped_code(
                             acc[e] + static_cast<double>(tp[e]), alpha, qmin,
                             qmax));
      if (ends_prefix) emit();
      continue;
    }
    if (ends_prefix) {
      // A shorter prefix ends off a leader: its final tile folds the live
      // group, so write that fold to its row and leave `acc` to the run.
      float* o = out + next * n;
      for (size_t e = 0; e < n; ++e)
        o[e] = static_cast<float>(
            alpha * static_cast<double>(clamped_code(
                        acc[e] + static_cast<double>(tp[e]), alpha, qmin, qmax)));
      ++next;
    }
    // Plain PSUM quantization; the stored tile joins the live group.
    for (size_t e = 0; e < n; ++e)
      acc[e] += alpha * static_cast<double>(clamped_code(
                            static_cast<double>(tp[e]), alpha, qmin, qmax));
  }
}

void accumulate_psums(const float* tiles, index_t num_tiles, index_t tile_numel,
                      PsumMode mode, const QuantSpec& spec,
                      const std::vector<double>& scales, index_t group_size,
                      float* out) {
  accumulate_psums(tiles, std::vector<index_t>{num_tiles}, tile_numel, mode,
                   spec, scales, group_size, out);
}

TensorF accumulate_psums(const std::vector<TensorF>& tiles, PsumMode mode,
                         const QuantSpec& spec, const std::vector<double>& scales,
                         index_t group_size) {
  APSQ_CHECK(!tiles.empty());
  const Shape& shape = tiles.front().shape();
  std::vector<float> block;
  block.reserve(tiles.size() * tiles.front().storage().size());
  for (const auto& t : tiles) {
    APSQ_CHECK_MSG(t.shape() == shape, "tile shape mismatch");
    block.insert(block.end(), t.storage().begin(), t.storage().end());
  }
  TensorF out(shape);
  accumulate_psums(block.data(), static_cast<index_t>(tiles.size()), out.numel(),
                   mode, spec, scales, group_size, out.data());
  return out;
}

}  // namespace apsq
