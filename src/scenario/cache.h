#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "src/core/sweep.h"

namespace floretsim::scenario {

/// The spec-hash identity of a cache entry or scenario spec: FNV-1a over
/// a format-version tag plus the *canonical* compact JSON serialization
/// (scenario::to_json always emits every field in fixed order, doubles at
/// max_digits10), so the hash is invariant under JSON key order and
/// whitespace of any user-side representation — two specs hash equal iff
/// they parse to equal values — and every semantic field change changes
/// it. Bump kCacheFormatVersion to invalidate all existing entries (e.g.
/// when the row wire format or the evaluator semantics change).
inline constexpr const char* kCacheFormatVersion = "floretsim-cache-v2";

/// The spec-hash identity of one sweep point. Specs do not carry the
/// simulator core (every core produces the same rows), so neither does
/// the hash: a row cached under one core serves every other.
[[nodiscard]] std::uint64_t point_hash(const core::SweepPoint& point);

/// Content-addressed on-disk row cache (the --cache-dir backend): one
/// file per point, named <hex(point_hash)>.json, holding the serialized
/// SweepRow. Lookups parse, validate, and require the stored point to
/// equal the requested one (hash-collision/stale-format guard); any
/// corrupt, truncated, or mismatched entry is evicted and reported as a
/// miss — the engine recomputes, so a damaged cache can never serve bad
/// rows. Writes are atomic (temp file + rename), so concurrent processes
/// sharing a cache directory never observe torn entries.
///
/// Counters (also mirrored into obs::MetricsRegistry when enabled, as
/// result_cache.hits / .misses / .stores / .evictions):
///   hits    — lookups served from disk;
///   misses  — probes that found no entry;
///   stores  — rows written;
///   evictions — corrupt/mismatched entries removed on lookup.
class ResultCache final : public core::PointResultCache {
public:
    /// Creates `dir` (and parents) if needed. Throws std::runtime_error
    /// when the directory cannot be created or is not writable.
    explicit ResultCache(std::string dir);

    [[nodiscard]] bool probe(const core::SweepPoint& point) override;
    [[nodiscard]] std::optional<core::SweepRow> lookup(
        const core::SweepPoint& point) override;
    void store(const core::SweepPoint& point, const core::SweepRow& row) override;

    /// Pure existence check by hash — no counters, no validation. The
    /// --list path uses this so inspecting the cache never skews the
    /// hit/miss statistics of the run.
    [[nodiscard]] bool contains_hash(std::uint64_t hash) const;
    /// The entry file path for a point hash (diagnostics and tests).
    [[nodiscard]] std::string entry_path(std::uint64_t hash) const;

    [[nodiscard]] const std::string& dir() const { return dir_; }
    [[nodiscard]] std::int64_t hits() const { return hits_.load(); }
    [[nodiscard]] std::int64_t misses() const { return misses_.load(); }
    [[nodiscard]] std::int64_t stores() const { return stores_.load(); }
    [[nodiscard]] std::int64_t evictions() const { return evictions_.load(); }

private:
    std::string dir_;
    std::atomic<std::int64_t> hits_{0};
    std::atomic<std::int64_t> misses_{0};
    std::atomic<std::int64_t> stores_{0};
    std::atomic<std::int64_t> evictions_{0};
};

}  // namespace floretsim::scenario
