#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace floretsim::thermal {

/// Steady-state compact thermal model of a 3D-stacked PE array
/// (HotSpot-grid-class; see DESIGN.md §5). Each PE is one thermal cell.
/// Cells couple laterally within a tier and vertically between tiers; the
/// tier at z == depth-1 couples to an isothermal heat sink. The bottom
/// tier (z == 0) is farthest from the sink — the paper's Fig. 7 shows its
/// hotspots. Sides and bottom are adiabatic (worst case).
struct ThermalConfig {
    std::int32_t width = 5;
    std::int32_t height = 5;
    std::int32_t depth = 4;
    double t_ambient_k = 318.0;   ///< Package/sink reference temperature.
    double g_lateral_w_per_k = 0.12;
    double g_vertical_w_per_k = 0.5;
    double g_sink_w_per_k = 0.12;  ///< Per top-tier cell, to the sink.
    double sor_omega = 1.5;        ///< Over-relaxation factor.
    double tolerance_k = 1e-7;     ///< Max per-cell update at convergence.
    std::int32_t max_iterations = 200000;

    [[nodiscard]] std::int32_t cells() const noexcept { return width * height * depth; }
    [[nodiscard]] std::int32_t index(std::int32_t x, std::int32_t y,
                                     std::int32_t z) const noexcept {
        return (z * height + y) * width + x;
    }
};

struct ThermalResult {
    ThermalConfig config;
    std::vector<double> temp_k;  ///< Cell temperatures, config.index order.
    std::int32_t iterations = 0;
    bool converged = false;

    [[nodiscard]] double peak_k() const;
    [[nodiscard]] double mean_k() const;
    /// Peak temperature within one tier.
    [[nodiscard]] double tier_peak_k(std::int32_t z) const;
    /// Cells in tier z that exceed `threshold_k` (the hotspot count of
    /// Fig. 7).
    [[nodiscard]] std::int32_t hotspot_count(std::int32_t z, double threshold_k) const;
};

/// Solves G·T = P with successive over-relaxation. `power_w` has one entry
/// per cell (config.index order). Throws std::invalid_argument on size
/// mismatch or non-finite power.
[[nodiscard]] ThermalResult solve_steady_state(const ThermalConfig& cfg,
                                               std::span<const double> power_w);

/// Throws std::runtime_error, naming the iteration count and tolerance,
/// when `result` stopped at max_iterations without converging. Callers
/// that price the temperatures use it so an unconverged field is never
/// priced silently.
void require_converged(const ThermalResult& result);

/// ASCII rendering of one tier's temperature field (for Fig. 7-style
/// visual comparison): one glyph per cell bucketed between the tier's min
/// and max, plus a legend line.
[[nodiscard]] std::string render_tier(const ThermalResult& result, std::int32_t z);

}  // namespace floretsim::thermal
