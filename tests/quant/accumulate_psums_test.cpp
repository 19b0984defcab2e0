// The whole-sequence accumulate_psums is a flat re-implementation of the
// streaming references. It must equal them bit for bit on every output
// element: kExact the exact double sum, kPsq PsqAccumulator, kApsq
// GroupedApsq (and ApsqAccumulator at gs = 1) — across tile counts, group
// boundaries, per-tile and non-power-of-two scales, exact .5 ties and
// saturating inputs.
#include "quant/apsq.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "quant/grouping.hpp"

namespace apsq {
namespace {

const Shape kShape = {3, 4};

u32 bits_of(float x) {
  u32 b = 0;
  std::memcpy(&b, &x, sizeof b);
  return b;
}

void expect_bit_equal(const TensorF& got, const TensorF& want,
                      const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (index_t e = 0; e < got.numel(); ++e)
    EXPECT_EQ(bits_of(got[e]), bits_of(want[e]))
        << what << " element " << e << ": " << got[e] << " vs " << want[e];
}

/// Tiles mixing ordinary values, exact .5 ties after division by each
/// broadcast scale used below, and values far past a narrow grid's bounds.
std::vector<TensorF> tiles_for(index_t np, u64 seed) {
  Rng rng(seed);
  std::vector<TensorF> tiles;
  for (index_t t = 0; t < np; ++t) {
    TensorF tile(kShape);
    for (index_t e = 0; e < tile.numel(); ++e) {
      const double k = static_cast<double>(rng.uniform_index(41)) - 20.0;
      double x = 0.0;
      switch ((t + e) % 7) {
        case 0: x = rng.normal(0.0, 40.0); break;
        case 1: x = (k + 0.5) * 3.0; break;   // x / 3 ties
        case 2: x = 2.0 * k + 1.0; break;     // x / 2 ties
        case 3: x = (k + 0.5) * 0.75; break;  // x / 0.75 ties
        case 4: x = k + 0.5; break;           // x / 1 ties
        // Near-ties for α = 1.1, where x / α and x · (1/α) round apart
        // (8.25 / 1.1 < 7.5 but 8.25 · (1 / 1.1) rounds to 7.5).
        case 5: x = (k + 0.5) * 1.1; break;
        default: x = (e % 2 ? -4.5e6 : 4.5e6); break;
      }
      tile[e] = static_cast<float>(x);
    }
    tiles.push_back(std::move(tile));
  }
  return tiles;
}

TensorF exact_reference(const std::vector<TensorF>& tiles) {
  TensorD acc(kShape, 0.0);
  for (const TensorF& t : tiles)
    for (index_t e = 0; e < t.numel(); ++e) acc[e] += static_cast<double>(t[e]);
  TensorF out(kShape);
  for (index_t e = 0; e < out.numel(); ++e) out[e] = static_cast<float>(acc[e]);
  return out;
}

TensorF psq_reference(const std::vector<TensorF>& tiles, const QuantSpec& spec,
                      const std::vector<double>& scales) {
  PsqAccumulator acc(kShape, spec, scales, static_cast<index_t>(tiles.size()));
  for (const TensorF& t : tiles) acc.push(t);
  return acc.output();
}

TensorF apsq_reference(const std::vector<TensorF>& tiles, const QuantSpec& spec,
                       const std::vector<double>& scales, index_t gs) {
  GroupedApsq::Options opt;
  opt.spec = spec;
  opt.group_size = gs;
  opt.num_tiles = static_cast<index_t>(tiles.size());
  opt.scales = scales;
  GroupedApsq acc(kShape, opt);
  for (const TensorF& t : tiles) acc.push(t);
  return acc.output();
}

/// Broadcast scales (power of two and not) plus a per-tile schedule.
std::vector<std::vector<double>> scale_sets(index_t np) {
  std::vector<double> per_tile;
  for (index_t i = 0; i < np; ++i) per_tile.push_back(i % 2 ? 0.75 : 1.1);
  return {{1.0}, {2.0}, {3.0}, {0.75}, {1.1}, per_tile};
}

TEST(AccumulatePsums, ExactEqualsDoubleSum) {
  for (index_t np : {1, 2, 3, 7}) {
    const auto tiles = tiles_for(np, 11 + static_cast<u64>(np));
    expect_bit_equal(
        accumulate_psums(tiles, PsumMode::kExact, QuantSpec::int8(), {1.0}),
        exact_reference(tiles), "exact np=" + std::to_string(np));
  }
}

TEST(AccumulatePsums, PsqEqualsPsqAccumulator) {
  for (const QuantSpec spec : {QuantSpec::int4(), QuantSpec::int8(),
                               QuantSpec{16, true}, QuantSpec{32, true}})
    for (index_t np : {1, 2, 3, 8})
      for (const std::vector<double>& scales : scale_sets(np)) {
        const auto tiles = tiles_for(np, 23 + static_cast<u64>(np));
        expect_bit_equal(
            accumulate_psums(tiles, PsumMode::kPsq, spec, scales),
            psq_reference(tiles, spec, scales),
            "psq bits=" + std::to_string(spec.bits) + " np=" + std::to_string(np));
      }
}

TEST(AccumulatePsums, ApsqEqualsGroupedApsqAcrossGroupBoundaries) {
  // np < gs, gs == np, gs > np, and np where the last tile is also a
  // group leader (5 with gs 2, 7 with gs 3, 4 with gs 3 ...).
  for (const QuantSpec spec : {QuantSpec::int4(), QuantSpec::int8(),
                               QuantSpec{12, true}, QuantSpec{32, true}})
    for (index_t np : {1, 2, 3, 4, 5, 7})
      for (index_t gs : {1, 2, 3, 4, 8})
        for (const std::vector<double>& scales : scale_sets(np)) {
          const auto tiles = tiles_for(np, 37 + static_cast<u64>(np * gs));
          expect_bit_equal(
              accumulate_psums(tiles, PsumMode::kApsq, spec, scales, gs),
              apsq_reference(tiles, spec, scales, gs),
              "apsq bits=" + std::to_string(spec.bits) + " np=" +
                  std::to_string(np) + " gs=" + std::to_string(gs));
        }
}

TEST(AccumulatePsums, ApsqGs1EqualsApsqAccumulator) {
  for (index_t np : {1, 2, 3, 6}) {
    const auto tiles = tiles_for(np, 53 + static_cast<u64>(np));
    for (const std::vector<double>& scales : scale_sets(np)) {
      ApsqAccumulator acc(kShape, QuantSpec::int8(), scales, np);
      for (const TensorF& t : tiles) acc.push(t);
      expect_bit_equal(
          accumulate_psums(tiles, PsumMode::kApsq, QuantSpec::int8(), scales, 1),
          acc.output(), "apsq gs=1 np=" + std::to_string(np));
    }
  }
}

TEST(AccumulatePsums, ThirtyTwoBitGridSaturatesAtItsBounds) {
  // Values beyond ±2^31 after scaling clamp to the int32 grid's ends.
  std::vector<TensorF> tiles;
  for (float v : {3.0e9f, 3.0e9f, -7.0e9f}) tiles.push_back(TensorF(kShape, v));
  const QuantSpec spec{32, true};
  for (index_t gs : {1, 2, 4}) {
    const TensorF want = apsq_reference(tiles, spec, {1.0}, gs);
    expect_bit_equal(accumulate_psums(tiles, PsumMode::kApsq, spec, {1.0}, gs),
                     want, "int32 apsq gs=" + std::to_string(gs));
    EXPECT_EQ(want[0], static_cast<float>(-2147483648.0)) << "gs=" << gs;
  }
  expect_bit_equal(accumulate_psums(tiles, PsumMode::kPsq, spec, {1.0}),
                   psq_reference(tiles, spec, {1.0}), "int32 psq");
}

TEST(AccumulatePsums, FlatBlockEqualsTileList) {
  const index_t np = 6;
  const auto tiles = tiles_for(np, 71);
  std::vector<float> block;
  for (const TensorF& t : tiles)
    block.insert(block.end(), t.storage().begin(), t.storage().end());
  TensorF out(kShape);
  accumulate_psums(block.data(), np, out.numel(), PsumMode::kApsq,
                   QuantSpec::int8(), {2.0}, 4, out.data());
  expect_bit_equal(out, apsq_reference(tiles, QuantSpec::int8(), {2.0}, 4),
                   "flat block");
}

TEST(AccumulatePsums, TileCountListEqualsOneCallPerCount) {
  // One pass over a list of prefixes writes, per count, the row a
  // separate single-count call writes. With gs 2, 3 and 5 the list has
  // counts ending on a group leader (tile index a multiple of gs) and off
  // one, where the prefix's final fold must not disturb the longer run;
  // gs 16 never leads after tile 0; the last count is the final tile.
  const index_t np = 11;
  const auto tiles = tiles_for(np, 89);
  std::vector<float> block;
  for (const TensorF& t : tiles)
    block.insert(block.end(), t.storage().begin(), t.storage().end());
  const index_t numel = tiles.front().numel();
  const size_t row = static_cast<size_t>(numel);
  const std::vector<std::vector<index_t>> count_lists = {
      {1}, {np}, {1, np}, {2, 5, np}, {1, 3, 4, 6, 7, 9, 10, np}};
  for (const PsumMode mode : {PsumMode::kExact, PsumMode::kPsq, PsumMode::kApsq})
    for (const QuantSpec spec : {QuantSpec::int4(), QuantSpec::int8()})
      for (const index_t gs : {1, 2, 3, 5, 16})
        for (const std::vector<double>& scales : scale_sets(np))
          for (const std::vector<index_t>& counts : count_lists) {
            // A per-tile schedule covers exactly the tiles a call reads.
            const auto scales_for = [&](index_t n) {
              return scales.size() == 1
                         ? scales
                         : std::vector<double>(scales.begin(),
                                               scales.begin() + n);
            };
            std::vector<float> rows(counts.size() * row);
            accumulate_psums(block.data(), counts, numel, mode, spec,
                             scales_for(counts.back()), gs, rows.data());
            for (size_t k = 0; k < counts.size(); ++k) {
              std::vector<float> one(row);
              accumulate_psums(block.data(), counts[k], numel, mode, spec,
                               scales_for(counts[k]), gs, one.data());
              for (size_t e = 0; e < row; ++e)
                EXPECT_EQ(rows[k * row + e], one[e])
                    << to_string(mode) << " bits=" << spec.bits
                    << " gs=" << gs << " scales=" << scales.size()
                    << " count=" << counts[k] << " element " << e;
            }
          }
}

TEST(AccumulatePsums, RejectsBadInputs) {
  const auto tiles = tiles_for(3, 5);
  EXPECT_THROW(accumulate_psums(tiles, PsumMode::kPsq, QuantSpec::int8(), {}),
               std::logic_error);
  EXPECT_THROW(
      accumulate_psums(tiles, PsumMode::kPsq, QuantSpec::int8(), {1.0, 2.0}),
      std::logic_error);
  EXPECT_THROW(
      accumulate_psums(tiles, PsumMode::kApsq, QuantSpec::int8(), {0.0}),
      std::logic_error);
  EXPECT_THROW(
      accumulate_psums(tiles, PsumMode::kApsq, QuantSpec::int8(), {1.0}, 0),
      std::logic_error);
  std::vector<float> block(3 * 12), out(2 * 12);
  for (const std::vector<index_t>& counts :
       std::vector<std::vector<index_t>>{{}, {0, 2}, {2, 1}, {2, 2}})
    EXPECT_THROW(accumulate_psums(block.data(), counts, 12, PsumMode::kApsq,
                                  QuantSpec::int8(), {1.0}, 1, out.data()),
                 std::logic_error);
  std::vector<TensorF> mixed = tiles;
  mixed.push_back(TensorF({2, 2}));
  EXPECT_THROW(accumulate_psums(mixed, PsumMode::kExact, QuantSpec::int8(), {1.0}),
               std::logic_error);
}

}  // namespace
}  // namespace apsq
