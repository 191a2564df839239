#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace floretsim::util {

/// How ComputeOnce::get found its key.
enum class Lookup {
    kHit,       ///< Stored or in flight: the caller waits for the value.
    kMiss,      ///< New: the caller computes the value and stores it.
    kUncached,  ///< New but past the entry cap: computed, not stored.
};

/// Thread-safe compute-once map, the pattern behind experiment::ArchCache
/// and core::NoiMemo. The first caller of a key computes its value;
/// concurrent callers of the same key block on a condition variable until
/// it is published, then return the same value. A computation that throws
/// reaches every waiter and drops the entry, so a later call retries. At
/// most `max_entries` keys are stored or in flight; past that a miss
/// computes without storing.
///
/// Every lookup is counted, hit or miss, before any wait or computation,
/// so a lookup that later throws is counted too.
template <class Key, class Value, class Hash = std::hash<Key>>
class ComputeOnce {
public:
    explicit ComputeOnce(
        std::size_t max_entries = std::numeric_limits<std::size_t>::max())
        : max_entries_(max_entries) {}
    ComputeOnce(const ComputeOnce&) = delete;
    ComputeOnce& operator=(const ComputeOnce&) = delete;

    /// The value of `key`, computed by `compute()` if no caller has.
    /// `on_lookup(Lookup)` runs once the lookup is counted, before any wait
    /// or computation.
    template <class Compute, class OnLookup>
    [[nodiscard]] Value get(const Key& key, Compute&& compute, OnLookup&& on_lookup) {
        std::shared_ptr<Slot> slot;
        Lookup lookup = Lookup::kUncached;
        {
            const std::lock_guard<std::mutex> lk(mu_);
            if (const auto it = slots_.find(key); it != slots_.end()) {
                slot = it->second;
                lookup = Lookup::kHit;
                ++hits_;
            } else {
                ++misses_;
                if (slots_.size() < max_entries_) {
                    slot = std::make_shared<Slot>();
                    slots_.emplace(key, slot);
                    lookup = Lookup::kMiss;
                }
            }
        }
        on_lookup(lookup);
        if (lookup == Lookup::kUncached) return compute();
        if (lookup == Lookup::kHit) {
            std::unique_lock<std::mutex> lk(slot->mu);
            slot->done.wait(lk, [&] { return slot->value.has_value() || slot->error; });
            if (slot->error) std::rethrow_exception(slot->error);
            return *slot->value;
        }
        try {
            Value value = compute();
            {
                const std::lock_guard<std::mutex> lk(slot->mu);
                slot->value = value;
            }
            slot->done.notify_all();
            return value;
        } catch (...) {
            // Wake the waiters with the error and drop the entry so a
            // later call retries instead of finding a poisoned value.
            {
                const std::lock_guard<std::mutex> lk(slot->mu);
                slot->error = std::current_exception();
            }
            slot->done.notify_all();
            {
                const std::lock_guard<std::mutex> lk(mu_);
                if (const auto it = slots_.find(key);
                    it != slots_.end() && it->second == slot)
                    slots_.erase(it);
            }
            throw;
        }
    }

    [[nodiscard]] std::int64_t hits() const {
        const std::lock_guard<std::mutex> lk(mu_);
        return hits_;
    }
    [[nodiscard]] std::int64_t misses() const {
        const std::lock_guard<std::mutex> lk(mu_);
        return misses_;
    }
    /// Stored or in-flight entries.
    [[nodiscard]] std::size_t entries() const {
        const std::lock_guard<std::mutex> lk(mu_);
        return slots_.size();
    }

    /// Drops every entry and zeroes the counters.
    void clear() {
        const std::lock_guard<std::mutex> lk(mu_);
        slots_.clear();
        hits_ = 0;
        misses_ = 0;
    }

private:
    /// One key's value (or the computation's exception), and the signal
    /// its waiters block on until either is published.
    struct Slot {
        std::mutex mu;
        std::condition_variable done;
        std::optional<Value> value;
        std::exception_ptr error;
    };

    const std::size_t max_entries_;
    mutable std::mutex mu_;
    std::unordered_map<Key, std::shared_ptr<Slot>, Hash> slots_;
    std::int64_t hits_ = 0;
    std::int64_t misses_ = 0;
};

}  // namespace floretsim::util
