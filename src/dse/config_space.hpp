// Cartesian design-space generator: dataflow × PSUM handling × PE-array
// geometry × buffer sizing × workload, optionally refined by per-component
// buffer-byte and operand-precision axes. Points are indexed 0..size()-1
// in a fixed mixed-radix order, so the space never needs materializing and
// every run (serial or parallel) sees the identical enumeration. Axes are
// declared data (AxisDesc: which field an axis writes, and its value
// count) in one fixed-capacity list, so the index arithmetic — 64-bit
// throughout, overflow-checked — lives in one generic decode loop, and a
// decode allocates nothing beyond the point it returns.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "dse/design_point.hpp"

namespace apsq::dse {

/// MAC-array parallelism triple (Po, Pci, Pco).
struct PeGeometry {
  index_t po = 16;
  index_t pci = 8;
  index_t pco = 8;
};

/// Buffer sizing triple in bytes (ifmap, ofmap, weight).
struct BufferSizing {
  i64 ifmap_bytes = 256 * 1024;
  i64 ofmap_bytes = 256 * 1024;
  i64 weight_bytes = 128 * 1024;
};

/// The DesignPoint field (or field group) an enumeration axis writes.
enum class Axis {
  kWorkload,
  kDataflow,
  kPsum,
  kGeometry,
  kBuffers,
  kIfmapBytes,
  kOfmapBytes,
  kWeightBytes,
  kActBits,
  kWeightBits,
};
inline constexpr size_t kAxisCount = static_cast<size_t>(Axis::kWeightBits) + 1;

/// One enumeration axis, declared as data: the field it writes and how
/// many values it takes. ConfigSpace::at writes value index `v`
/// (0 <= v < count) of the axis into a DesignPoint.
struct AxisDesc {
  Axis axis = Axis::kWorkload;
  index_t count = 0;
};

/// A space's axes in decode order. Fixed capacity (one slot per Axis), so
/// building one never touches the heap.
class AxisList {
 public:
  void push_back(AxisDesc a) { items_[size_++] = a; }
  const AxisDesc* begin() const { return items_.data(); }
  const AxisDesc* end() const { return items_.data() + size_; }
  size_t size() const { return size_; }
  const AxisDesc& operator[](size_t i) const { return items_[i]; }

 private:
  std::array<AxisDesc, kAxisCount> items_{};
  size_t size_ = 0;
};

class ConfigSpace {
 public:
  // Coarse axes. Every combination is one design point; empty coarse axes
  // are invalid.
  std::vector<std::string> workloads;
  std::vector<Dataflow> dataflows;
  std::vector<PsumConfig> psum_configs;
  std::vector<PeGeometry> geometries;
  std::vector<BufferSizing> buffers;

  // Operand precisions shared by every point (W8A8 in the paper) — unless
  // the fine precision axes below override them per point.
  int act_bits = 8;
  int weight_bits = 8;

  // Optional fine-grained axes. Each non-empty list multiplies the space
  // as its own (faster-varying) axis whose decoder overrides the single
  // field the coarse buffer axis / precision scalars set. Empty lists
  // leave the legacy five-axis enumeration — indices, sizes, and
  // config_space_hash — byte-identical.
  std::vector<i64> ifmap_bytes_axis;
  std::vector<i64> ofmap_bytes_axis;
  std::vector<i64> weight_bytes_axis;
  std::vector<int> act_bits_axis;
  std::vector<int> weight_bits_axis;

  /// The enumeration axes in decode order: workload slowest, then
  /// dataflow, psum, geometry, buffers, then any fine axes — the last
  /// axis varies fastest, so neighbouring indices share workload and
  /// accuracy sub-keys and the accuracy table warms quickly. size() and at()
  /// read this same list.
  AxisList axes() const;

  /// Number of points (product of axis lengths), computed in 64-bit with
  /// an overflow check: a space too large for index_t throws instead of
  /// silently wrapping into a plausible-looking smaller size.
  index_t size() const;

  /// Decode point `i` (0 <= i < size()) by walking axes() in mixed radix.
  DesignPoint at(index_t i) const;

  void validate() const;

  /// The paper-centred sweep used by `apsq_dse` and the bench: all four
  /// workloads, all three dataflows, PSUM bits 4–16 with APSQ group sizes
  /// 1–4 plus prior-work PSQ and the INT32/INT16 baselines, two PE-array
  /// geometries (DNN and LLM parallelism), and two buffer sizings —
  /// 1248 points.
  static ConfigSpace paper_default();

  /// A small space (few dozen points) for tests.
  static ConfigSpace smoke();

  /// The fine-grained paper superset: the paper's workload / dataflow /
  /// PSUM axes crossed with a 96-point PE-geometry grid, per-component
  /// buffer capacities from 32 KB to 512 KB, and per-point operand
  /// precisions — ~6.2 × 10⁷ points. Exhaustive enumeration is infeasible
  /// here by design; this is the budgeted-search target space.
  static ConfigSpace fine_default();

  /// The default PSUM-handling axis: APSQ at {4,6,8,12,16} bits ×
  /// gs {1..4}, PSQ (prior work, independent per-tile quantization) at the
  /// same bit-widths, and the INT32 full-precision baseline — 26 settings,
  /// all distinct canonical keys.
  static std::vector<PsumConfig> default_psum_axis();

 private:
  /// Write value `v` of axis `a` into `p`.
  void apply(Axis a, index_t v, DesignPoint& p) const;
};

}  // namespace apsq::dse
