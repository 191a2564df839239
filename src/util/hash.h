#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace floretsim::util {

/// Stable content hashing for spec identity and the NoI memo's buckets.
/// FNV-1a over bytes: deterministic across platforms, processes, and
/// builds (no pointer or layout dependence), so a spec hash printed by one
/// run names the same spec in every later run. Not cryptographic; the
/// memo compares its full key, so a collision costs only a bucket scan.

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// FNV-1a over a byte string, optionally continuing a previous hash (pass
/// the prior result as `seed` to chain fragments).
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes,
                                            std::uint64_t seed = kFnvOffsetBasis) {
    std::uint64_t h = seed;
    for (const char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= kFnvPrime;
    }
    return h;
}

/// Fixed-width lowercase hex (16 digits) — the --list display form.
[[nodiscard]] std::string hash_hex(std::uint64_t h);

}  // namespace floretsim::util
