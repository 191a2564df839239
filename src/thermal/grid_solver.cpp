#include "src/thermal/grid_solver.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "src/obs/metrics.h"

namespace floretsim::thermal {

double ThermalResult::peak_k() const {
    double peak = 0.0;
    for (const double t : temp_k) peak = std::max(peak, t);
    return peak;
}

double ThermalResult::mean_k() const {
    if (temp_k.empty()) return 0.0;
    double sum = 0.0;
    for (const double t : temp_k) sum += t;
    return sum / static_cast<double>(temp_k.size());
}

double ThermalResult::tier_peak_k(std::int32_t z) const {
    double peak = 0.0;
    for (std::int32_t y = 0; y < config.height; ++y)
        for (std::int32_t x = 0; x < config.width; ++x)
            peak = std::max(peak,
                            temp_k[static_cast<std::size_t>(config.index(x, y, z))]);
    return peak;
}

std::int32_t ThermalResult::hotspot_count(std::int32_t z, double threshold_k) const {
    std::int32_t count = 0;
    for (std::int32_t y = 0; y < config.height; ++y)
        for (std::int32_t x = 0; x < config.width; ++x)
            if (temp_k[static_cast<std::size_t>(config.index(x, y, z))] > threshold_k)
                ++count;
    return count;
}

ThermalResult solve_steady_state(const ThermalConfig& cfg, std::span<const double> power_w) {
    const auto n = static_cast<std::size_t>(cfg.cells());
    if (power_w.size() != n)
        throw std::invalid_argument("power vector size != cell count");
    for (const double p : power_w)
        if (!std::isfinite(p) || p < 0.0)
            throw std::invalid_argument("power entries must be finite and non-negative");

    ThermalResult res;
    res.config = cfg;
    res.temp_k.assign(n, cfg.t_ambient_k);

    // Gauss-Seidel with successive over-relaxation on the conductance
    // Laplacian: T_i = (P_i + sum_j G_ij T_j + G_sink T_amb) / sum G_i.
    for (std::int32_t it = 0; it < cfg.max_iterations; ++it) {
        double max_delta = 0.0;
        for (std::int32_t z = 0; z < cfg.depth; ++z) {
            for (std::int32_t y = 0; y < cfg.height; ++y) {
                for (std::int32_t x = 0; x < cfg.width; ++x) {
                    const auto i = static_cast<std::size_t>(cfg.index(x, y, z));
                    double g_sum = 0.0;
                    double flux = power_w[i];
                    auto couple = [&](std::int32_t xx, std::int32_t yy, std::int32_t zz,
                                      double g) {
                        g_sum += g;
                        flux += g * res.temp_k[static_cast<std::size_t>(
                                    cfg.index(xx, yy, zz))];
                    };
                    if (x > 0) couple(x - 1, y, z, cfg.g_lateral_w_per_k);
                    if (x + 1 < cfg.width) couple(x + 1, y, z, cfg.g_lateral_w_per_k);
                    if (y > 0) couple(x, y - 1, z, cfg.g_lateral_w_per_k);
                    if (y + 1 < cfg.height) couple(x, y + 1, z, cfg.g_lateral_w_per_k);
                    if (z > 0) couple(x, y, z - 1, cfg.g_vertical_w_per_k);
                    if (z + 1 < cfg.depth) couple(x, y, z + 1, cfg.g_vertical_w_per_k);
                    if (z == cfg.depth - 1) {
                        g_sum += cfg.g_sink_w_per_k;
                        flux += cfg.g_sink_w_per_k * cfg.t_ambient_k;
                    }
                    const double updated = flux / g_sum;
                    const double relaxed =
                        res.temp_k[i] + cfg.sor_omega * (updated - res.temp_k[i]);
                    max_delta = std::max(max_delta, std::abs(relaxed - res.temp_k[i]));
                    res.temp_k[i] = relaxed;
                }
            }
        }
        res.iterations = it + 1;
        if (max_delta < cfg.tolerance_k) {
            res.converged = true;
            break;
        }
    }
    auto& m = obs::MetricsRegistry::global();
    if (m.enabled()) {
        m.add("thermal.solves");
        m.add("thermal.sor_iterations", res.iterations);
    }
    return res;
}

void require_converged(const ThermalResult& result) {
    if (result.converged) return;
    std::ostringstream os;
    os << "thermal solve did not converge: " << result.iterations
       << " iterations without every cell update falling below "
       << result.config.tolerance_k << " K";
    throw std::runtime_error(os.str());
}

std::string render_tier(const ThermalResult& result, std::int32_t z) {
    const ThermalConfig& cfg = result.config;
    double lo = 1e30;
    double hi = -1e30;
    for (std::int32_t y = 0; y < cfg.height; ++y) {
        for (std::int32_t x = 0; x < cfg.width; ++x) {
            const double t = result.temp_k[static_cast<std::size_t>(cfg.index(x, y, z))];
            lo = std::min(lo, t);
            hi = std::max(hi, t);
        }
    }
    static constexpr char kGlyphs[] = ".:-=+*#%@";
    constexpr std::int32_t kLevels = 9;
    std::ostringstream os;
    os << "tier z=" << z << "  [" << lo << " K .. " << hi << " K]\n";
    for (std::int32_t y = 0; y < cfg.height; ++y) {
        for (std::int32_t x = 0; x < cfg.width; ++x) {
            const double t = result.temp_k[static_cast<std::size_t>(cfg.index(x, y, z))];
            const double frac = hi > lo ? (t - lo) / (hi - lo) : 0.0;
            const auto lvl = std::min<std::int32_t>(
                kLevels - 1, static_cast<std::int32_t>(frac * kLevels));
            os << kGlyphs[lvl] << ' ';
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace floretsim::thermal
