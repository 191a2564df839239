#pragma once

/// Shared harness for the benches and examples that are not paper
/// figures (the figures and tables are scenarios of the floretsim_run
/// driver: `floretsim_run --only <scenario>`). The experiment
/// infrastructure (architecture builders, dynamic multi-tenant runner),
/// the parallel sweep engine, and the JSON report are library code in
/// src/ — tested like everything else; this header aliases them into the
/// bench namespace and adds the thin command-line layer every bench
/// shares:
///
///   --threads N     worker threads for the SweepEngine (0 = hardware)
///   --json PATH     machine-readable report alongside the printed tables
///   --seed N        override the bench's built-in experiment seed, so
///                   stochastic benches (scheduler) are replayable
///   --core NAME     select the simulator core (reference | activity) for
///                   every simulation of the run; implemented by setting
///                   FLORETSIM_SIM_CORE before first use (an unknown
///                   FLORETSIM_SIM_CORE is a usage error, exit 2)
///   --trace-out F   enable span tracing, write Chrome trace-event JSON to F
///   --metrics-out F enable the metrics registry, write its snapshot to F
///
/// Remaining non-flag arguments stay positional (each bench documents its
/// own); unrecognized --flags are a usage error so typos cannot silently
/// select the wrong code path.

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/sweep.h"
#include "src/scenario/report.h"
#include "src/util/table.h"

namespace floretsim::bench {
using namespace floretsim::core::experiment;  // NOLINT: intentional alias
using core::SweepEngine;
using core::SweepSpec;
using scenario::JsonReport;

/// Parsed command-line options shared by every bench binary.
struct Options {
    std::int32_t threads = 0;  ///< SweepEngine worker count (0 = hardware).
    std::string json_path;     ///< Empty = no JSON report.
    std::uint64_t seed = 0;    ///< Only meaningful when has_seed.
    bool has_seed = false;     ///< --seed was given on the command line.
    std::string core;          ///< --core name; empty = config/env default.
    std::string trace_out;     ///< --trace-out path; empty = tracing off.
    std::string metrics_out;   ///< --metrics-out path; empty = metrics off.
    std::vector<std::string> positional;

    /// The CLI seed when given, the bench's own default otherwise.
    [[nodiscard]] std::uint64_t seed_or(std::uint64_t fallback) const noexcept {
        return has_seed ? seed : fallback;
    }

    /// Parses argv; exits with a usage message on malformed flags.
    static Options parse(int argc, char** argv);
};

/// The uniform bench epilogue: writes the JSON report to --json and the
/// enabled observability outputs to --trace-out/--metrics-out. Returns
/// the process exit code — nonzero when any requested file could not be
/// written, so a full disk or a bad path can never masquerade as a
/// successful run. Benches return `finish(opt, report)` (or combine it
/// with their own status: `rc | finish(...)`).
[[nodiscard]] int finish(const Options& opt, const JsonReport& report);

}  // namespace floretsim::bench
