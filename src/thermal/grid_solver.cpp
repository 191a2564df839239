#include "src/thermal/grid_solver.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

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

ThermalModel::ThermalModel(const ThermalConfig& cfg) : cfg_(cfg) {
    if (cfg.width < 1 || cfg.height < 1 || cfg.depth < 1)
        throw std::invalid_argument(
            "thermal grid " + std::to_string(cfg.width) + "x" +
            std::to_string(cfg.height) + "x" + std::to_string(cfg.depth) +
            ": every dimension must be at least 1");
    const std::pair<const char*, double> conductances[] = {
        {"g_lateral_w_per_k", cfg.g_lateral_w_per_k},
        {"g_vertical_w_per_k", cfg.g_vertical_w_per_k},
        {"g_sink_w_per_k", cfg.g_sink_w_per_k}};
    for (const auto& [name, g] : conductances)
        if (!(std::isfinite(g) && g > 0.0))
            throw std::invalid_argument(std::string("thermal ") + name +
                                        " must be finite and > 0, got " +
                                        std::to_string(g));

    const auto n = static_cast<std::size_t>(cfg.cells());
    const auto w = static_cast<std::size_t>(cfg.width);
    band_ = w * static_cast<std::size_t>(cfg.height);
    lower_.assign(n * (band_ + 1), 0.0);

    // Assemble G's lower band. A coupling g between cells i and j < i
    // puts -g at (i, j) and adds g to both diagonals; a top-tier cell's
    // sink term adds to its own.
    for (std::int32_t z = 0; z < cfg.depth; ++z) {
        for (std::int32_t y = 0; y < cfg.height; ++y) {
            for (std::int32_t x = 0; x < cfg.width; ++x) {
                const auto i = static_cast<std::size_t>(cfg.index(x, y, z));
                auto couple = [&](std::size_t j, double g) {
                    lower_[slot(i, j)] = -g;
                    lower_[slot(i, i)] += g;
                    lower_[slot(j, j)] += g;
                };
                if (x > 0) couple(i - 1, cfg.g_lateral_w_per_k);
                if (y > 0) couple(i - w, cfg.g_lateral_w_per_k);
                if (z > 0) couple(i - band_, cfg.g_vertical_w_per_k);
                if (z == cfg.depth - 1) lower_[slot(i, i)] += cfg.g_sink_w_per_k;
            }
        }
    }

    // In-place banded Cholesky, G = L·Lᵀ: the factor keeps G's band, and
    // for j <= i row j's band starts no later than row i's.
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t lo = first_column(i);
        for (std::size_t j = lo; j <= i; ++j) {
            double s = lower_[slot(i, j)];
            for (std::size_t k = lo; k < j; ++k)
                s -= lower_[slot(i, k)] * lower_[slot(j, k)];
            lower_[slot(i, j)] = j == i ? std::sqrt(s) : s / lower_[slot(j, j)];
        }
    }
}

ThermalResult ThermalModel::solve(std::span<const double> power_w) const {
    const auto n = static_cast<std::size_t>(cfg_.cells());
    if (power_w.size() != n)
        throw std::invalid_argument("power vector size != cell count");
    for (const double p : power_w)
        if (!std::isfinite(p) || p < 0.0)
            throw std::invalid_argument("power entries must be finite and non-negative");

    ThermalResult res;
    res.config = cfg_;
    std::vector<double>& t = res.temp_k;
    t.assign(power_w.begin(), power_w.end());
    // L·y = P, row by row.
    for (std::size_t i = 0; i < n; ++i) {
        double s = t[i];
        for (std::size_t k = first_column(i); k < i; ++k) s -= lower_[slot(i, k)] * t[k];
        t[i] = s / lower_[slot(i, i)];
    }
    // Lᵀ·θ = y, last row first; each solved θ_i is pushed into the rows
    // above it, so L is still read along its rows.
    for (std::size_t i = n; i-- > 0;) {
        const double theta = t[i] / lower_[slot(i, i)];
        t[i] = theta;
        for (std::size_t k = first_column(i); k < i; ++k) t[k] -= lower_[slot(i, k)] * theta;
    }
    for (double& v : t) v += cfg_.t_ambient_k;
    obs::MetricsRegistry::global().add("thermal.solves");
    return res;
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
