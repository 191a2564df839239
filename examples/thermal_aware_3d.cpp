/// Section III scenario: a DNN mapped on a 100-PE 3D-stacked ReRAM system.
/// Shows the performance-only (Floret SFC) placement versus the joint
/// performance-thermal optimization: EDP, peak temperature, the bottom-tier
/// heat map, and the resulting inference accuracy under thermal noise.
///
///   $ ./examples/thermal_aware_3d [model] [params_M]   (default ResNet34 36.5)

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/core/moo.h"
#include "src/dnn/model_zoo.h"
#include "src/pim/partitioner.h"
#include "src/thermal/power.h"
#include "src/topo/mesh.h"

int main(int argc, char** argv) {
    using namespace floretsim;
    const std::string model = argc > 1 ? argv[1] : "ResNet34";
    const double params_m = argc > 2 ? std::atof(argv[2]) : 36.5;

    const auto net = dnn::build_model(model, dnn::Dataset::kImageNet);
    const auto topo3d = topo::make_mesh3d(5, 5, 4);
    const auto routes = noc::RouteTable::build(topo3d, noc::RoutingPolicy::kShortestPath);

    thermal::ThermalConfig tcfg;
    pim::ReramConfig rcfg;
    pim::ThermalAccuracyModel acc;
    core::PerfParams perf;

    const auto plan = pim::partition_by_params(net, params_m, params_m / 88.0);
    thermal::PowerParams pcfg;
    pcfg.inference_period_ns = pim::pipeline_period_ns(net, plan, rcfg);

    core::MooConfig moo;
    moo.iterations = 1500;
    moo.w_thermal = 0.2;
    moo.t_target_k = 331.0;

    std::cout << "=== " << model << " (" << params_m << "M params) on 5x5x4 PEs ===\n"
              << "pipeline period " << pcfg.inference_period_ns / 1e3 << " us\n\n";

    const auto perf_only =
        core::optimize_perf_only(net, plan, routes, tcfg, pcfg, rcfg, acc, perf, moo);
    const auto joint =
        core::optimize_joint(net, plan, routes, tcfg, pcfg, rcfg, acc, perf, moo);

    const thermal::ThermalModel stack(tcfg);
    auto report = [&](const char* name, const core::MooResult& r) {
        const auto assign = pim::assign_layers(net, plan, r.pe_order);
        const auto power = thermal::pe_power_map(net, assign, tcfg.cells(), pcfg);
        const auto tr = stack.solve(power);
        std::cout << "--- " << name << " ---\n"
                  << "EDP " << r.eval.edp << "  peak " << r.eval.peak_k
                  << " K  accuracy drop " << 100.0 * r.eval.accuracy_drop << "%\n"
                  << "bottom tier (farthest from sink):\n"
                  << thermal::render_tier(tr, 0) << '\n';
    };
    report("performance-only (Floret 3D)", perf_only);
    report("joint performance-thermal", joint);

    std::cout << "Joint optimization moves the power-hungry early layers toward\n"
                 "the heat sink, keeping the ReRAM conductance window open at a\n"
                 "small EDP cost (Figs. 6-7 of the paper).\n";
    return 0;
}
