// Total-energy evaluation (Eqs. 1–2) with per-component breakdown — the
// engine behind Fig. 1, Fig. 5, Fig. 6, and Table IV.
#pragma once

#include <vector>

#include "energy/costs.hpp"
#include "energy/layer_traffic.hpp"

namespace apsq {

/// Energy of one layer (or a whole workload), split the way Fig. 1 plots
/// it: ifmap / weight / psum / ofmap data movement plus MAC ops, and also
/// split by memory level.
struct EnergyBreakdown {
  double ifmap_pj = 0.0;
  double weight_pj = 0.0;
  double psum_pj = 0.0;
  double ofmap_pj = 0.0;
  double mac_pj = 0.0;

  double sram_pj = 0.0;
  double dram_pj = 0.0;

  double total_pj() const {
    return ifmap_pj + weight_pj + psum_pj + ofmap_pj + mac_pj;
  }
  /// Fraction of total energy spent on PSUM traffic (the 69% of Fig. 1).
  double psum_fraction() const {
    const double t = total_pj();
    return t > 0.0 ? psum_pj / t : 0.0;
  }

  EnergyBreakdown& operator+=(const EnergyBreakdown& other) {
    ifmap_pj += other.ifmap_pj;
    weight_pj += other.weight_pj;
    psum_pj += other.psum_pj;
    ofmap_pj += other.ofmap_pj;
    mac_pj += other.mac_pj;
    sram_pj += other.sram_pj;
    dram_pj += other.dram_pj;
    return *this;
  }
};

/// Energy of one layer instance: its traffic priced per byte at each
/// memory level (Eq. 1), plus its MACs.
EnergyBreakdown layer_energy(const LayerShape& layer, const LayerTraffic& t,
                             const EnergyCosts& costs = EnergyCosts::horowitz());

/// Energy of a single layer instance under a dataflow / PSUM config.
EnergyBreakdown layer_energy(Dataflow df, const LayerShape& layer,
                             const AcceleratorConfig& acc,
                             const PsumConfig& psum,
                             const EnergyCosts& costs = EnergyCosts::horowitz());

/// Energy of a whole workload (sums layer_energy × repeat).
EnergyBreakdown workload_energy(Dataflow df, const Workload& w,
                                const AcceleratorConfig& acc,
                                const PsumConfig& psum,
                                const EnergyCosts& costs = EnergyCosts::horowitz());

/// Convenience: energy of `cfg` normalized to the INT32 baseline
/// (the y-axis of Figs. 5 and 6).
double normalized_energy(Dataflow df, const Workload& w,
                         const AcceleratorConfig& acc, const PsumConfig& cfg,
                         const EnergyCosts& costs = EnergyCosts::horowitz());

}  // namespace apsq
