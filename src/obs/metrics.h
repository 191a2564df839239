#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json.h"

namespace floretsim::obs {

/// Process-wide registry of named counters, gauges, and histograms — the
/// characterization layer for the hot paths (fabric cache, wormhole sims,
/// engine phases, serving admissions). Design constraints, in order:
///
///   zero-cost-when-off:  every recording call is one relaxed atomic load
///                        and a branch while the registry is disabled (the
///                        default), so instrumented hot loops pay nothing
///                        in ordinary runs;
///   never perturb:       recording is write-only — no instrumented code
///                        path ever reads a metric back, so reports are
///                        bit-identical with metrics on or off (pinned by
///                        the obs parity check in bench_smoke.sh);
///   deterministic:       snapshot() depends only on WHAT was recorded,
///                        never on thread interleaving or wall clock.
///                        Counters and histogram buckets merge by
///                        order-independent integer sums; keys serialize
///                        sorted. Wall-clock durations belong in the
///                        obs::Tracer, not here.
///
/// Threading: each recording thread lazily registers a private shard (its
/// own mutex, uncontended on the hot path); snapshot() merges the shards
/// under the registry mutex. Gauges are last-writer-wins process-level
/// values — set them from one place (driver config, not worker threads)
/// or the merge order is unspecified.
///
/// Histograms bucket samples into powers of two (log2 buckets), so the
/// bucket counts — like the counters — merge deterministically across any
/// thread split. Quantile estimates (p50/p95/p99) are computed at
/// snapshot time by replaying the bucket midpoints through
/// util::P2Quantile in ascending order; they are bucket-resolution
/// estimates, while count/min/max are exact.
class MetricsRegistry {
public:
    MetricsRegistry();
    ~MetricsRegistry();
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// The registry every instrumented call site records into.
    [[nodiscard]] static MetricsRegistry& global();

    void enable() noexcept { enabled_.store(true, std::memory_order_relaxed); }
    void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Adds `delta` to the named counter. No-op while disabled.
    void add(std::string_view counter, std::int64_t delta = 1);
    /// Sets the named gauge (last writer wins). No-op while disabled.
    void set_gauge(std::string_view gauge, double value);
    /// Adds one sample to the named histogram. No-op while disabled.
    void observe(std::string_view histogram, double value);

    /// Deterministic merged view of every shard:
    ///   {"counters": {...}, "gauges": {...}, "histograms": {...}}
    /// with keys sorted and histogram entries carrying count/min/max,
    /// p50/p95/p99 estimates, and the raw log2 bucket counts.
    [[nodiscard]] util::Json snapshot() const;

    /// Serializes snapshot() to `path`. Empty path is a no-op returning
    /// true; an unwritable path returns false (with a note on stderr).
    [[nodiscard]] bool write(const std::string& path) const;

    /// Merges a foreign snapshot() document (e.g. read back from a fleet
    /// worker's --metrics-out file) into this registry: counters and
    /// histogram buckets add, gauges overwrite. The quantile estimates in
    /// the document are ignored — they are recomputed from the merged
    /// buckets. Throws std::invalid_argument on a malformed document.
    void absorb(const util::Json& snapshot_doc);

    /// Clears every recorded value (shards stay registered, so concurrent
    /// recorders keep valid handles). Not synchronized against concurrent
    /// recording — quiesce first, as between test cases.
    void reset();

private:
    struct Shard;
    [[nodiscard]] Shard& local_shard();

    std::atomic<bool> enabled_{false};
    std::uint64_t id_;  ///< Distinguishes registry instances in the TLS cache.
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace floretsim::obs
