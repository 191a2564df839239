#include "bench/common.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string_view>

#include "src/noc/simulator.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace floretsim::bench {
namespace {

[[noreturn]] void usage_error(const char* argv0, const std::string& msg) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s [--threads N] [--json PATH] "
                 "[--seed N] [--core reference|activity] "
                 "[--trace-out PATH] [--metrics-out PATH] [args...]\n",
                 argv0, msg.c_str(), argv0);
    std::exit(2);
}

}  // namespace

Options Options::parse(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--threads") {
            if (i + 1 >= argc) usage_error(argv[0], "--threads needs a value");
            const std::string_view value = argv[++i];
            std::int32_t threads = 0;
            const auto [ptr, ec] =
                std::from_chars(value.data(), value.data() + value.size(), threads);
            if (ec != std::errc() || ptr != value.data() + value.size())
                usage_error(argv[0], "--threads expects an integer");
            opt.threads = threads;
        } else if (arg == "--json") {
            if (i + 1 >= argc) usage_error(argv[0], "--json needs a path");
            opt.json_path = argv[++i];
        } else if (arg == "--seed") {
            if (i + 1 >= argc) usage_error(argv[0], "--seed needs a value");
            const std::string_view value = argv[++i];
            std::uint64_t seed = 0;
            const auto [ptr, ec] =
                std::from_chars(value.data(), value.data() + value.size(), seed);
            if (ec != std::errc() || ptr != value.data() + value.size())
                usage_error(argv[0], "--seed expects a non-negative integer");
            opt.seed = seed;
            opt.has_seed = true;
        } else if (arg == "--core") {
            if (i + 1 >= argc) usage_error(argv[0], "--core needs a name");
            const std::string value = argv[++i];
            if (!noc::sim_core_from_name(value))
                usage_error(argv[0], "--core expects reference or activity, got " +
                                         value);
            // The process-wide env override is the one switch every
            // simulation already honors; the CLI just sets it before the
            // first Simulator is built.
            setenv("FLORETSIM_SIM_CORE", value.c_str(), 1);
            opt.core = value;
        } else if (arg == "--trace-out") {
            if (i + 1 >= argc) usage_error(argv[0], "--trace-out needs a path");
            opt.trace_out = argv[++i];
        } else if (arg == "--metrics-out") {
            if (i + 1 >= argc) usage_error(argv[0], "--metrics-out needs a path");
            opt.metrics_out = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            usage_error(argv[0], "help");
        } else if (arg.rfind("--", 0) == 0) {
            usage_error(argv[0], "unknown flag " + arg);
        } else {
            opt.positional.push_back(arg);
        }
    }
    // A bad FLORETSIM_SIM_CORE fails here, before the bench body runs,
    // rather than silently benchmarking the default core.
    try {
        (void)noc::resolved_sim_core(noc::SimConfig{}.core);
    } catch (const std::invalid_argument& e) {
        usage_error(argv[0], e.what());
    }
    // Observability is opt-in per flag and enabled at parse time, before
    // the bench body runs, so every span and counter of the run lands in
    // the requested files.
    if (!opt.trace_out.empty()) obs::Tracer::global().enable();
    if (!opt.metrics_out.empty()) obs::MetricsRegistry::global().enable();
    return opt;
}

int finish(const Options& opt, const JsonReport& report) {
    int rc = 0;
    if (!report.write(opt.json_path)) rc = 1;
    if (!obs::Tracer::global().write(opt.trace_out)) rc = 1;
    if (!obs::MetricsRegistry::global().write(opt.metrics_out)) rc = 1;
    return rc;
}

}  // namespace floretsim::bench
