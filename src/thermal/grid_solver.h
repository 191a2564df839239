#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace floretsim::thermal {

/// Steady-state compact thermal model of a 3D-stacked PE array
/// (HotSpot-grid-class). Each PE is one thermal cell. Cells couple
/// laterally within a tier and vertically between tiers; the tier at
/// z == depth-1 couples to an isothermal heat sink. The bottom tier
/// (z == 0) is farthest from the sink — the paper's Fig. 7 shows its
/// hotspots. Sides and bottom are adiabatic (worst case).
struct ThermalConfig {
    std::int32_t width = 5;
    std::int32_t height = 5;
    std::int32_t depth = 4;
    double t_ambient_k = 318.0;   ///< Package/sink reference temperature.
    double g_lateral_w_per_k = 0.12;
    double g_vertical_w_per_k = 0.5;
    double g_sink_w_per_k = 0.12;  ///< Per top-tier cell, to the sink.

    [[nodiscard]] std::int32_t cells() const noexcept { return width * height * depth; }
    [[nodiscard]] std::int32_t index(std::int32_t x, std::int32_t y,
                                     std::int32_t z) const noexcept {
        return (z * height + y) * width + x;
    }
};

struct ThermalResult {
    ThermalConfig config;
    std::vector<double> temp_k;  ///< Cell temperatures, config.index order.

    [[nodiscard]] double peak_k() const;
    [[nodiscard]] double mean_k() const;
    /// Peak temperature within one tier.
    [[nodiscard]] double tier_peak_k(std::int32_t z) const;
    /// Cells in tier z that exceed `threshold_k` (the hotspot count of
    /// Fig. 7).
    [[nodiscard]] std::int32_t hotspot_count(std::int32_t z, double threshold_k) const;
};

/// The stack's conductance matrix G, factored once. G is the conductance
/// Laplacian of the lateral and vertical couplings plus the sink term on
/// the top tier's diagonal; with every conductance positive it is
/// symmetric positive definite, so the banded Cholesky factor (bandwidth
/// width·height, the vertical coupling's offset) always exists. Each power
/// map is then one exact solve, T = T_amb + G⁻¹P: two banded triangular
/// substitutions, no iteration and no convergence test. A model is
/// immutable after construction, so threads may share one.
class ThermalModel {
public:
    /// Throws std::invalid_argument for a dimension below 1 or a
    /// conductance that is non-finite or not positive.
    explicit ThermalModel(const ThermalConfig& cfg);

    [[nodiscard]] const ThermalConfig& config() const noexcept { return cfg_; }

    /// `power_w` has one entry per cell (config.index order). Throws
    /// std::invalid_argument on size mismatch or a negative or
    /// non-finite entry.
    [[nodiscard]] ThermalResult solve(std::span<const double> power_w) const;

private:
    /// Position of L(i, j), i - band_ <= j <= i, in lower_.
    [[nodiscard]] std::size_t slot(std::size_t i, std::size_t j) const noexcept {
        return i * (band_ + 1) + band_ + j - i;
    }
    /// Row i's first column inside the band.
    [[nodiscard]] std::size_t first_column(std::size_t i) const noexcept {
        return i > band_ ? i - band_ : 0;
    }

    ThermalConfig cfg_;
    std::size_t band_ = 0;       ///< width·height: how far below the diagonal L reaches.
    std::vector<double> lower_;  ///< L row i, columns i-band_..i, at i*(band_+1).
};

/// ASCII rendering of one tier's temperature field (for Fig. 7-style
/// visual comparison): one glyph per cell bucketed between the tier's min
/// and max, plus a legend line.
[[nodiscard]] std::string render_tier(const ThermalResult& result, std::int32_t z);

}  // namespace floretsim::thermal
