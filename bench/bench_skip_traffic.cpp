/// Section II claim: in ResNet34 the linear (consecutive-layer)
/// activations are ~4.5x the skip-connection activations, i.e. skips are
/// ~19% of the total traffic of a single pass. Reports the breakdown for
/// every residual/dense model in Table I — then runs two simulator-core
/// A/Bs, reference against activity:
///
///   1. the skip-heaviest model's mapped traffic drained through the
///      Floret fabric (the paper's workload, mixed traffic everywhere);
///   2. a saturated corner drain — a handful of sources flooding one sink
///      while the rest of a 10x10 mesh sits idle. Every cycle moves a flit
///      somewhere near the sink, so the fabric is never globally quiet;
///      the activity core steps every cycle but arbitrates only the
///      outputs the drain's head flits request.
///
/// Results must agree bit-for-bit across cores (checked in-binary; nonzero
/// exit on disagreement) — only the engine-work statistics may differ.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>

#include "bench/common.h"
#include "src/dnn/model_zoo.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/topo/mesh.h"

namespace {
using namespace floretsim;

constexpr noc::SimCore kCores[] = {noc::SimCore::kReference,
                                   noc::SimCore::kActivity};

/// FNV-1a over the semantic SimResult fields (everything the differential
/// contract covers; engine-work statistics excluded), folded to 32 bits so
/// it survives the JSON round trip as an exact double.
std::uint32_t result_hash(const noc::SimResult& r) {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xffu;
            h *= 1099511628211ull;
        }
    };
    const auto mixd = [&mix](double d) {
        std::uint64_t v = 0;
        std::memcpy(&v, &d, sizeof v);
        mix(v);
    };
    mix(static_cast<std::uint64_t>(r.cycles));
    mix(static_cast<std::uint64_t>(r.packets));
    mix(static_cast<std::uint64_t>(r.flits));
    mix(static_cast<std::uint64_t>(r.flit_hops));
    mix(r.completed ? 1 : 0);
    mix(static_cast<std::uint64_t>(r.packet_latency.count()));
    mixd(r.packet_latency.mean());
    mixd(r.packet_latency.variance());
    mixd(r.packet_latency.min());
    mixd(r.packet_latency.max());
    for (const auto v : r.router_flits) mix(static_cast<std::uint64_t>(v));
    for (const auto v : r.link_flits) mix(static_cast<std::uint64_t>(v));
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

}  // namespace

int main(int argc, char** argv) {
    using namespace floretsim;
    const auto opt = bench::Options::parse(argc, argv);
    std::cout << "=== Skip vs linear activation traffic (one inference pass) ===\n\n";

    const std::vector<const char*> models{"ResNet18", "ResNet34", "ResNet50",
                                          "ResNet101", "ResNet152", "DenseNet169",
                                          "VGG19"};
    struct Row {
        double total = 0.0;
        double skip = 0.0;
    };
    bench::SweepEngine engine(opt.threads);
    const auto rows = engine.map(models.size(), [&](std::size_t i) {
        const auto net = dnn::build_model(models[i], dnn::Dataset::kImageNet);
        return Row{static_cast<double>(net.total_edge_activations()),
                   static_cast<double>(net.skip_edge_activations())};
    });

    util::TextTable t({"Model", "Total acts (M)", "Skip acts (M)", "Skip share",
                       "Linear/skip"});
    for (std::size_t i = 0; i < models.size(); ++i) {
        const auto& r = rows[i];
        t.add_row({models[i], util::TextTable::fmt(r.total / 1e6, 1),
                   util::TextTable::fmt(r.skip / 1e6, 1),
                   util::TextTable::fmt(100.0 * r.skip / r.total, 1) + "%",
                   r.skip > 0 ? util::TextTable::fmt((r.total - r.skip) / r.skip) + "x"
                              : "-"});
    }
    t.print(std::cout);
    std::cout << "\nPaper (ResNet34): linear ~4.5x skip; skip ~19% of total.\n";

    bench::JsonReport report("skip_traffic");
    report.add_table("skip_traffic", t);

    if (const char* forced = std::getenv("FLORETSIM_SIM_CORE");
        forced != nullptr && *forced != '\0') {
        // The override wins over per-run configs, so every row below runs
        // the same core and the A/Bs are vacuous — say so instead of
        // reporting mislabeled numbers.
        std::cout << "\nnote: FLORETSIM_SIM_CORE=" << forced
                  << " overrides every row; these A/Bs compare the forced "
                     "core against itself.\n";
    }

    bool all_agree = true;

    // --- A/B 1: DNN2 (ResNet34/ImageNet, the paper's headline residual
    // workload) mapped onto the Floret fabric and drained through the
    // wormhole simulator, once per core. The SimResult is bit-identical by
    // construction (the differential suite enforces it); what differs is
    // how many cycles each core actually executed.
    std::cout << "\n=== Wormhole drain: mapped DNN2 on Floret, per core ===\n\n";
    auto arch = bench::build_arch(bench::Arch::kFloret, 10, 10);
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const std::vector<std::string> ids{"DNN2"};
    const auto tasks = core::make_tasks(ids, bench::kParamsPerChipletM, owner);
    const auto mapped = arch.mapper->map_queue(tasks, nullptr);
    core::EvalConfig eval = bench::default_eval_config();

    util::TextTable sim_t({"Core", "Drain (kcyc)", "Stepped", "Skipped", "Jumps",
                           "Wall (ms)"});
    double mapped_cycles_ref = -1.0;
    for (const auto core_kind : kCores) {
        eval.sim.core = core_kind;
        const auto t0 = std::chrono::steady_clock::now();
        const auto r =
            core::evaluate_noi(arch.topology(), arch.routes(), mapped, eval);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const std::string prefix = noc::sim_core_name(core_kind);
        sim_t.add_row({prefix, util::TextTable::fmt(r.latency_cycles / 1e3, 1),
                       std::to_string(r.sim_cycles_stepped),
                       std::to_string(r.sim_cycles_skipped),
                       std::to_string(r.sim_horizon_jumps),
                       util::TextTable::fmt(ms, 2)});
        report.add_metric(prefix + "_drain_cycles", r.latency_cycles);
        report.add_metric(prefix + "_cycles_stepped",
                          static_cast<double>(r.sim_cycles_stepped));
        report.add_metric(prefix + "_cycles_skipped",
                          static_cast<double>(r.sim_cycles_skipped));
        report.add_metric(prefix + "_horizon_jumps",
                          static_cast<double>(r.sim_horizon_jumps));
        report.add_metric(prefix + "_wall_seconds", ms / 1e3);
        if (core_kind == noc::SimCore::kReference)
            mapped_cycles_ref = r.latency_cycles;
        else if (r.latency_cycles != mapped_cycles_ref)
            all_agree = false;
    }
    sim_t.print(std::cout);
    report.add_table("sim_core_ab", sim_t);

    // --- A/B 2: saturated corner drain. Five sources flood node 0 of a
    // 10x10 mesh with 64 KiB each while the other 94 nodes are silent. The
    // sink ejects every cycle, so the fabric is never globally quiet and
    // the activity core steps every cycle too — but it offers switch
    // allocation only the outputs some head flit requests, where the
    // reference core offers all 360 channels.
    std::cout << "\n=== Wormhole drain: saturated corner sink, per core ===\n\n";
    const auto mesh = topo::make_mesh(10, 10);
    const auto mesh_rt =
        noc::RouteTable::build(mesh, noc::RoutingPolicy::kShortestPath);
    noc::SimConfig drain_cfg;
    drain_cfg.injection_rate = 8.0;  // saturating: packets queue at sources
    drain_cfg.input_buffer_flits = 2;
    drain_cfg.max_cycles = 2'000'000;
    std::vector<noc::Demand> drain_demands;
    for (const topo::NodeId src : {1, 2, 10, 11, 20})
        drain_demands.push_back({src, 0, 64 * 1024});

    util::TextTable drain_t({"Core", "Drain (kcyc)", "Stepped", "Skipped",
                             "Jumps", "Arbitrations", "Hash", "Wall (ms)"});
    noc::SimResult drain_ref;
    for (const auto core_kind : kCores) {
        noc::SimConfig cfg = drain_cfg;
        cfg.core = core_kind;
        noc::Simulator sim(mesh, mesh_rt, cfg);
        sim.add_demands(drain_demands);
        const auto t0 = std::chrono::steady_clock::now();
        const auto r = sim.run();
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        const std::uint32_t hash = result_hash(r);
        const std::string prefix =
            std::string("drain_") + noc::sim_core_name(core_kind);
        drain_t.add_row(
            {noc::sim_core_name(core_kind),
             util::TextTable::fmt(r.cycles / 1e3, 1),
             std::to_string(r.cycles_stepped), std::to_string(r.cycles_skipped),
             std::to_string(r.horizon_jumps), std::to_string(r.arbitrations),
             util::TextTable::fmt(static_cast<double>(hash), 0),
             util::TextTable::fmt(ms, 2)});
        report.add_metric(prefix + "_cycles", static_cast<double>(r.cycles));
        report.add_metric(prefix + "_cycles_stepped",
                          static_cast<double>(r.cycles_stepped));
        report.add_metric(prefix + "_cycles_skipped",
                          static_cast<double>(r.cycles_skipped));
        report.add_metric(prefix + "_horizon_jumps",
                          static_cast<double>(r.horizon_jumps));
        report.add_metric(prefix + "_arbitrations",
                          static_cast<double>(r.arbitrations));
        report.add_metric(prefix + "_result_hash", static_cast<double>(hash));
        report.add_metric(prefix + "_wall_seconds", ms / 1e3);
        if (core_kind == noc::SimCore::kReference)
            drain_ref = r;
        else if (result_hash(drain_ref) != hash)
            all_agree = false;
    }
    drain_t.print(std::cout);
    std::cout << (all_agree ? "\nAll cores agree on every drain result.\n"
                            : "\nERROR: cores disagree on a drain result!\n");
    report.add_table("drain_core_ab", drain_t);
    report.add_metric("cores_agree", all_agree ? 1.0 : 0.0);

    const int write_rc = bench::finish(opt, report);
    return all_agree ? write_rc : 1;
}
