#include "dse/config_space.hpp"

#include "common/check.hpp"

namespace apsq::dse {

AxisList ConfigSpace::axes() const {
  const auto count = [](const auto& values) {
    return static_cast<index_t>(values.size());
  };
  AxisList ax;
  ax.push_back({Axis::kWorkload, count(workloads)});
  ax.push_back({Axis::kDataflow, count(dataflows)});
  ax.push_back({Axis::kPsum, count(psum_configs)});
  ax.push_back({Axis::kGeometry, count(geometries)});
  ax.push_back({Axis::kBuffers, count(buffers)});
  // Fine axes append after the coarse ones (faster-varying) and override
  // the single field the coarse decode already wrote, so a legacy space
  // (all fine axes empty) enumerates byte-identically to the historic
  // five-axis divmod chain.
  if (!ifmap_bytes_axis.empty())
    ax.push_back({Axis::kIfmapBytes, count(ifmap_bytes_axis)});
  if (!ofmap_bytes_axis.empty())
    ax.push_back({Axis::kOfmapBytes, count(ofmap_bytes_axis)});
  if (!weight_bytes_axis.empty())
    ax.push_back({Axis::kWeightBytes, count(weight_bytes_axis)});
  if (!act_bits_axis.empty())
    ax.push_back({Axis::kActBits, count(act_bits_axis)});
  if (!weight_bits_axis.empty())
    ax.push_back({Axis::kWeightBits, count(weight_bits_axis)});
  return ax;
}

void ConfigSpace::apply(Axis a, index_t v, DesignPoint& p) const {
  const size_t i = static_cast<size_t>(v);
  switch (a) {
    case Axis::kWorkload: p.workload = workloads[i]; return;
    case Axis::kDataflow: p.dataflow = dataflows[i]; return;
    case Axis::kPsum: p.psum = psum_configs[i]; return;
    case Axis::kGeometry:
      p.acc.po = geometries[i].po;
      p.acc.pci = geometries[i].pci;
      p.acc.pco = geometries[i].pco;
      return;
    case Axis::kBuffers:
      p.acc.ifmap_buf_bytes = buffers[i].ifmap_bytes;
      p.acc.ofmap_buf_bytes = buffers[i].ofmap_bytes;
      p.acc.weight_buf_bytes = buffers[i].weight_bytes;
      return;
    case Axis::kIfmapBytes: p.acc.ifmap_buf_bytes = ifmap_bytes_axis[i]; return;
    case Axis::kOfmapBytes: p.acc.ofmap_buf_bytes = ofmap_bytes_axis[i]; return;
    case Axis::kWeightBytes:
      p.acc.weight_buf_bytes = weight_bytes_axis[i];
      return;
    case Axis::kActBits: p.acc.act_bits = act_bits_axis[i]; return;
    case Axis::kWeightBits: p.acc.weight_bits = weight_bits_axis[i]; return;
  }
}

namespace {

/// Product of the axis lengths, overflow-checked.
index_t point_count(const AxisList& ax) {
  index_t n = 1;
  for (const AxisDesc& axis : ax) {
    index_t next = 0;
    APSQ_CHECK_MSG(!__builtin_mul_overflow(n, axis.count, &next),
                   "config-space size overflows 64-bit index arithmetic");
    n = next;
  }
  return n;
}

}  // namespace

index_t ConfigSpace::size() const { return point_count(axes()); }

DesignPoint ConfigSpace::at(index_t i) const {
  APSQ_CHECK_MSG(i >= 0, "design-point index out of range");
  const AxisList ax = axes();
  // Mixed-radix digits, last axis fastest. A digit of a >2³²-point space
  // must never pass through a narrower intermediate, so 32-bit division
  // (several times cheaper than 64-bit on common x86 cores) is used only
  // while both operands fit. i < size() exactly when nothing is left
  // over after the slowest axis, so the range check needs no product.
  std::array<index_t, kAxisCount> digit{};
  u64 rest = static_cast<u64>(i);
  for (size_t a = ax.size(); a-- > 0;) {
    const u64 count = static_cast<u64>(ax[a].count);
    APSQ_CHECK_MSG(count > 0, "design-point index out of range");
    if ((rest | count) >> 32 == 0) {
      const u32 r = static_cast<u32>(rest);
      const u32 c = static_cast<u32>(count);
      digit[a] = static_cast<index_t>(r % c);
      rest = r / c;
    } else {
      digit[a] = static_cast<index_t>(rest % count);
      rest /= count;
    }
  }
  APSQ_CHECK_MSG(rest == 0, "design-point index out of range");
  DesignPoint p;
  p.acc.act_bits = act_bits;
  p.acc.weight_bits = weight_bits;
  for (size_t a = 0; a < ax.size(); ++a) apply(ax[a].axis, digit[a], p);
  return p;
}

void ConfigSpace::validate() const {
  APSQ_CHECK_MSG(!workloads.empty() && !dataflows.empty() &&
                     !psum_configs.empty() && !geometries.empty() &&
                     !buffers.empty(),
                 "every ConfigSpace axis needs at least one value");
  for (const auto& pc : psum_configs) pc.validate();
  for (const auto& g : geometries) APSQ_CHECK(g.po > 0 && g.pci > 0 && g.pco > 0);
  for (const auto& b : buffers)
    APSQ_CHECK(b.ifmap_bytes > 0 && b.ofmap_bytes > 0 && b.weight_bytes > 0);
  APSQ_CHECK(act_bits > 0 && weight_bits > 0);
  for (i64 v : ifmap_bytes_axis) APSQ_CHECK(v > 0);
  for (i64 v : ofmap_bytes_axis) APSQ_CHECK(v > 0);
  for (i64 v : weight_bytes_axis) APSQ_CHECK(v > 0);
  for (int v : act_bits_axis) APSQ_CHECK(v > 0);
  for (int v : weight_bits_axis) APSQ_CHECK(v > 0);
}

std::vector<PsumConfig> ConfigSpace::default_psum_axis() {
  std::vector<PsumConfig> axis;
  for (int bits : {4, 6, 8, 12, 16})
    for (index_t gs = 1; gs <= 4; ++gs)
      axis.push_back(PsumConfig::apsq_bits(bits, gs));
  // Prior-work PSQ: low-bit storage, independent per-tile quantization.
  // (16-bit PSQ doubles as the INT16 baseline of Fig. 1.)
  for (int bits : {4, 6, 8, 12, 16}) axis.push_back(PsumConfig{bits, false, 1});
  axis.push_back(PsumConfig::baseline_int32());
  return axis;
}

ConfigSpace ConfigSpace::paper_default() {
  ConfigSpace s;
  s.workloads = {"bert", "llama2", "segformer", "efficientvit"};
  s.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  s.psum_configs = default_psum_axis();
  // §IV-A DNN parallelism and the §IV-D LLM-decoding parallelism.
  s.geometries = {PeGeometry{16, 8, 8}, PeGeometry{1, 32, 32}};
  // Paper buffers and a half-sized variant (probes the spill cliffs).
  s.buffers = {BufferSizing{256 * 1024, 256 * 1024, 128 * 1024},
               BufferSizing{128 * 1024, 128 * 1024, 64 * 1024}};
  return s;
}

ConfigSpace ConfigSpace::smoke() {
  ConfigSpace s;
  s.workloads = {"bert"};
  s.dataflows = {Dataflow::kWS, Dataflow::kIS};
  s.psum_configs = {PsumConfig::baseline_int32(), PsumConfig::apsq_int8(1),
                    PsumConfig::apsq_int8(4), PsumConfig{8, false, 1}};
  s.geometries = {PeGeometry{16, 8, 8}};
  s.buffers = {BufferSizing{}};
  return s;
}

ConfigSpace ConfigSpace::fine_default() {
  ConfigSpace s;
  s.workloads = {"bert", "llama2", "segformer", "efficientvit"};
  s.dataflows = {Dataflow::kIS, Dataflow::kWS, Dataflow::kOS};
  s.psum_configs = default_psum_axis();
  // Parallelism grid spanning the paper's DNN (16,8,8) and LLM (1,32,32)
  // corners: 6 × 4 × 4 = 96 geometries.
  for (index_t po : {1, 2, 4, 8, 16, 32})
    for (index_t pci : {4, 8, 16, 32})
      for (index_t pco : {4, 8, 16, 32})
        s.geometries.push_back(PeGeometry{po, pci, pco});
  // The coarse buffer axis degenerates to one placeholder entry; the fine
  // per-component axes below override each field independently.
  s.buffers = {BufferSizing{}};
  for (i64 kb : {64, 96, 128, 192, 256, 384, 512})
    s.ifmap_bytes_axis.push_back(kb * 1024);
  s.ofmap_bytes_axis = s.ifmap_bytes_axis;
  for (i64 kb : {32, 48, 64, 96, 128, 192, 256})
    s.weight_bytes_axis.push_back(kb * 1024);
  s.act_bits_axis = {4, 6, 8};
  s.weight_bits_axis = {4, 8};
  return s;
}

}  // namespace apsq::dse
