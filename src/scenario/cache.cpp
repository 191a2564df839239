#include "src/scenario/cache.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

#include "src/obs/metrics.h"
#include "src/scenario/spec_json.h"
#include "src/util/hash.h"
#include "src/util/json.h"

namespace floretsim::scenario {
namespace fs = std::filesystem;

std::uint64_t point_hash(const core::SweepPoint& point) {
    std::uint64_t h = util::fnv1a(kCacheFormatVersion);
    h = util::fnv1a(":point:", h);
    return util::fnv1a(util::json_serialize_compact(to_json(point)), h);
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty())
        throw std::runtime_error("result cache: empty directory path");
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        throw std::runtime_error("result cache: cannot create directory " + dir_);
    // Writability probe up front — a read-only cache dir should fail the
    // run at startup, not silently degrade every store.
    const std::string marker = dir_ + "/CACHEDIR.floretsim";
    std::ofstream f(marker);
    f << kCacheFormatVersion << '\n';
    if (!f)
        throw std::runtime_error("result cache: directory " + dir_ +
                                 " is not writable");
    // Register the counters so a --metrics-out snapshot always carries
    // them, even for a run with zero cache traffic.
    auto& m = obs::MetricsRegistry::global();
    m.add("result_cache.hits", 0);
    m.add("result_cache.misses", 0);
    m.add("result_cache.stores", 0);
    m.add("result_cache.evictions", 0);
}

std::string ResultCache::entry_path(std::uint64_t hash) const {
    return dir_ + "/" + util::hash_hex(hash) + ".json";
}

bool ResultCache::contains_hash(std::uint64_t hash) const {
    std::error_code ec;
    return fs::is_regular_file(entry_path(hash), ec);
}

bool ResultCache::probe(const core::SweepPoint& point) {
    if (contains_hash(point_hash(point))) return true;
    misses_.fetch_add(1);
    obs::MetricsRegistry::global().add("result_cache.misses");
    return false;
}

std::optional<core::SweepRow> ResultCache::lookup(const core::SweepPoint& point) {
    const std::string path = entry_path(point_hash(point));
    const auto evict = [&] {
        std::error_code ec;
        fs::remove(path, ec);
        evictions_.fetch_add(1);
        obs::MetricsRegistry::global().add("result_cache.evictions");
    };
    std::ifstream f(path);
    if (!f) {
        evict();
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    try {
        core::SweepRow row = sweep_row_from_json(util::json_parse(buf.str()));
        // Hash-collision / stale-entry guard: the stored point must be
        // the requested point, or the entry is lying about its identity.
        if (!(row.point == point)) {
            evict();
            return std::nullopt;
        }
        hits_.fetch_add(1);
        obs::MetricsRegistry::global().add("result_cache.hits");
        return row;
    } catch (const std::exception&) {
        evict();
        return std::nullopt;
    }
}

void ResultCache::store(const core::SweepPoint& point, const core::SweepRow& row) {
    const std::string path = entry_path(point_hash(point));
    // Atomic publish: write a process-unique temp file, then rename over
    // the final name — concurrent readers (other runs sharing the
    // cache) never see a torn entry. Best-effort: a failed
    // store costs a future recompute, never the current sweep.
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream f(tmp);
        f << util::json_serialize_compact(to_json(row)) << '\n';
        if (!f) {
            std::error_code ec;
            fs::remove(tmp, ec);
            obs::MetricsRegistry::global().add("result_cache.store_failures");
            return;
        }
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        obs::MetricsRegistry::global().add("result_cache.store_failures");
        return;
    }
    stores_.fetch_add(1);
    obs::MetricsRegistry::global().add("result_cache.stores");
}

}  // namespace floretsim::scenario
