#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/json.h"

namespace floretsim::obs {

/// Span tracer: records (name, category, start, duration) events into
/// per-thread ring buffers and exports them as Chrome trace-event JSON —
/// openable in chrome://tracing or https://ui.perfetto.dev. Same
/// constraints as the MetricsRegistry: disabled by default, one relaxed
/// atomic load per call while off, and write-only (tracing can never
/// change a simulation result, only describe where its wall time went).
///
/// Ring buffers bound memory on any run length: each thread keeps the
/// most recent `capacity` events and counts the overwritten ones
/// (dropped()). Timestamps are CLOCK_MONOTONIC microseconds, shared by
/// every process on the host, so traces absorbed from fleet workers line
/// up with the coordinator's own spans on one timeline.
class Tracer {
public:
    static constexpr std::size_t kDefaultCapacity = 65536;

    Tracer();
    ~Tracer();
    Tracer(const Tracer&) = delete;
    Tracer& operator=(const Tracer&) = delete;

    /// The tracer every instrumented call site records into.
    [[nodiscard]] static Tracer& global();

    /// Starts recording; per-thread rings hold `capacity_per_thread`
    /// events (existing rings keep their capacity).
    void enable(std::size_t capacity_per_thread = kDefaultCapacity);
    void disable() noexcept { enabled_.store(false, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    /// Monotonic microseconds — the tracer's timestamp domain.
    [[nodiscard]] static std::int64_t now_us() noexcept;

    /// Records one complete span. `name` and `cat` must outlive the
    /// tracer: string literals, or intern() for dynamic names. No-op
    /// while disabled.
    void record(const char* name, const char* cat, std::int64_t ts_us,
                std::int64_t dur_us);

    /// Records a durationless instant event (Chrome "i" phase) — a marker
    /// for point-in-time facts like a worker death or a stolen lease.
    /// Same lifetime rules as record(). No-op while disabled.
    void record_instant(const char* name, const char* cat, std::int64_t ts_us);

    /// Stable storage for a dynamic span name (deduplicated).
    [[nodiscard]] const char* intern(std::string_view s);

    /// Label for this process in the trace viewer (emitted as Chrome
    /// process_name metadata), e.g. "coordinator" or "fleet worker 2/4 gen 0".
    void set_process_label(std::string label);

    /// Appends the traceEvents of a foreign Chrome-trace document (a
    /// fleet worker's --trace-out file) to this tracer's export — the
    /// coordinator-side merge. Throws std::invalid_argument when the
    /// document has no traceEvents array.
    void absorb(const util::Json& chrome_doc);

    /// The merged Chrome trace-event document:
    /// {"traceEvents": [...]}, own events sorted by timestamp, absorbed
    /// events appended verbatim.
    [[nodiscard]] util::Json chrome_trace() const;

    /// Serializes chrome_trace() to `path`. Empty path is a no-op
    /// returning true; an unwritable path returns false (note on stderr).
    [[nodiscard]] bool write(const std::string& path) const;

    /// Events currently held in this process's rings (absorbed foreign
    /// events not included).
    [[nodiscard]] std::size_t event_count() const;
    /// Events overwritten by ring wrap-around, across all threads.
    [[nodiscard]] std::uint64_t dropped() const;

    /// Clears recorded, absorbed, and interned state (rings stay
    /// registered). Not synchronized against concurrent recording.
    void reset();

private:
    struct ThreadLog;
    [[nodiscard]] ThreadLog& local_log();

    std::atomic<bool> enabled_{false};
    std::uint64_t id_;  ///< Distinguishes tracer instances in the TLS cache.
    mutable std::mutex mu_;
    std::size_t capacity_ = kDefaultCapacity;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
    std::deque<std::string> interned_;  ///< Stable addresses for intern().
    std::map<std::string, const char*, std::less<>> intern_index_;
    std::string process_label_;
    std::vector<util::Json> foreign_;  ///< absorb()ed events, verbatim.
};

/// RAII span: times its scope and records it on destruction. Free when
/// the tracer is disabled (one atomic load in the constructor).
class Span {
public:
    explicit Span(const char* name, const char* cat = "run") noexcept
        : name_(name),
          cat_(cat),
          t0_(Tracer::global().enabled() ? Tracer::now_us() : -1) {}
    ~Span() {
        if (t0_ >= 0)
            Tracer::global().record(name_, cat_, t0_, Tracer::now_us() - t0_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_;
    const char* cat_;
    std::int64_t t0_;
};

}  // namespace floretsim::obs
