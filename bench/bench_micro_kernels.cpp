/// Micro-benchmarks (google-benchmark) for the hot kernels of the
/// framework: SFC generation + placement optimization, route-table
/// construction, flit simulation throughput, the steady-state thermal
/// solve, model-zoo graph construction, and the Floret and SWAP fabric
/// builds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "src/core/experiment.h"
#include "src/core/floret.h"
#include "src/core/sfc.h"
#include "src/dnn/model_zoo.h"
#include "src/noc/routing.h"
#include "src/noc/simulator.h"
#include "src/thermal/grid_solver.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"
#include "src/util/rng.h"

namespace {

using namespace floretsim;

std::int32_t bench_lambda(std::int32_t side) { return side % 2 == 0 ? side / 2 : side; }

void BM_SfcGeneration(benchmark::State& state) {
    const auto side = static_cast<std::int32_t>(state.range(0));
    for (auto _ : state) {
        auto set = core::generate_sfc_set(side, side, bench_lambda(side));
        benchmark::DoNotOptimize(set);
    }
}

void BM_RouteTableUpDown(benchmark::State& state) {
    const auto side = static_cast<std::int32_t>(state.range(0));
    const auto t = topo::make_mesh(side, side);
    for (auto _ : state) {
        auto rt = noc::RouteTable::build(t, noc::RoutingPolicy::kUpDown);
        benchmark::DoNotOptimize(rt);
    }
}

void BM_SimulatorDrain(benchmark::State& state) {
    const auto t = topo::make_mesh(10, 10);
    const auto rt = noc::RouteTable::build(t, noc::RoutingPolicy::kShortestPath);
    std::int64_t flits = 0;
    for (auto _ : state) {
        noc::SimConfig cfg;
        noc::Simulator sim(t, rt, cfg);
        util::Rng rng(5);
        for (int i = 0; i < 200; ++i) {
            const auto s = static_cast<topo::NodeId>(rng.below(100));
            const auto d = static_cast<topo::NodeId>(rng.below(100));
            if (s != d) sim.add_demand({s, d, 256});
        }
        const auto res = sim.run();
        flits += res.flits;
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(flits);
}

/// Sparse single-flit packets on slow interposer wires: most simulated
/// cycles find every in-flight flit mid-pipe or blocked on credits. The
/// activity core proves those cycles no-ops and jumps straight to the
/// next arrival or injection; the reference loop steps each of them. Same
/// SimResult either way.
void BM_SimulatorSparse(benchmark::State& state) {
    const bool activity = state.range(0) != 0;
    const auto t = topo::make_mesh(10, 10);
    const auto rt = noc::RouteTable::build(t, noc::RoutingPolicy::kShortestPath);
    std::int64_t cycles = 0;
    for (auto _ : state) {
        noc::SimConfig cfg;
        cfg.injection_rate = 0.001;
        cfg.mm_per_cycle = 0.25;  // 18-cycle hops: deep link pipelines
        cfg.core = activity ? noc::SimCore::kActivity : noc::SimCore::kReference;
        noc::Simulator sim(t, rt, cfg);
        util::Rng rng(5);
        for (int i = 0; i < 30; ++i) {
            const auto s = static_cast<topo::NodeId>(rng.below(100));
            const auto d = static_cast<topo::NodeId>(rng.below(100));
            if (s != d) sim.add_demand({s, d, 8});  // one flit per packet
        }
        const auto res = sim.run();
        cycles += res.cycles;
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(cycles);
}

/// perfbench's hotspot_drain recipe for engine A/Bs: on ArchCache's 10x10
/// Floret fabric, each node in turn is the sink of five distinct random
/// sources sending 4 KiB each, with 2-flit buffers at a saturating rate.
/// One iteration runs all 100 drains; items are flit-hops.
void BM_SimulatorHotspot(benchmark::State& state) {
    core::experiment::ArchCache cache;
    const auto fabric = cache.get(core::experiment::Arch::kFloret, 10, 10);
    const auto nodes = fabric->topology.node_count();
    std::vector<std::vector<noc::Demand>> drains(static_cast<std::size_t>(nodes));
    util::Rng rng(1);
    for (topo::NodeId sink = 0; sink < nodes; ++sink) {
        auto& demands = drains[static_cast<std::size_t>(sink)];
        while (demands.size() < 5) {
            const auto src =
                static_cast<topo::NodeId>(rng.below(static_cast<std::uint64_t>(nodes)));
            if (src != sink && std::none_of(demands.begin(), demands.end(),
                                            [&](const noc::Demand& d) { return d.src == src; }))
                demands.push_back({src, sink, 4 * 1024});
        }
    }
    noc::SimConfig cfg;
    cfg.injection_rate = 8.0;
    cfg.input_buffer_flits = 2;
    cfg.max_cycles = 2'000'000;
    std::int64_t hops = 0;
    for (auto _ : state) {
        for (const auto& demands : drains) {
            noc::Simulator sim(fabric->topology, fabric->routes, cfg);
            sim.add_demands(demands);
            const auto res = sim.run();
            hops += res.flit_hops;
            benchmark::DoNotOptimize(res);
        }
    }
    state.SetItemsProcessed(hops);
}

/// The traffic shape single-hop trains stream: on ArchCache's 10x10 Floret
/// fabric with the experiments' default SimConfig, every link carries one
/// 2 KiB demand from its a end to its b end. One run per iteration; items
/// are flit-hops.
void BM_SimulatorSingleHop(benchmark::State& state) {
    core::experiment::ArchCache cache;
    const auto fabric = cache.get(core::experiment::Arch::kFloret, 10, 10);
    std::vector<noc::Demand> demands;
    for (const auto& l : fabric->topology.links()) demands.push_back({l.a, l.b, 2 * 1024});
    const auto cfg = core::experiment::default_eval_config().sim;
    std::int64_t hops = 0;
    for (auto _ : state) {
        noc::Simulator sim(fabric->topology, fabric->routes, cfg);
        sim.add_demands(demands);
        const auto res = sim.run();
        hops += res.flit_hops;
        benchmark::DoNotOptimize(res);
    }
    state.SetItemsProcessed(hops);
}

void BM_ThermalSolve(benchmark::State& state) {
    const thermal::ThermalModel model(thermal::ThermalConfig{});
    std::vector<double> power(static_cast<std::size_t>(model.config().cells()), 0.8);
    for (auto _ : state) {
        auto res = model.solve(power);
        benchmark::DoNotOptimize(res);
    }
}

void BM_ModelZooResNet50(benchmark::State& state) {
    for (auto _ : state) {
        auto net = dnn::build_resnet(50, dnn::Dataset::kImageNet);
        benchmark::DoNotOptimize(net);
    }
}

void BM_FloretTopologyBuild(benchmark::State& state) {
    const auto set = core::generate_sfc_set(10, 10, 10);
    for (auto _ : state) {
        auto t = core::make_floret(set);
        benchmark::DoNotOptimize(t);
    }
}

// SWAP synthesis (backbone, shortcut seeding and the 400-move anneal) at
// the registry's default swap_seed.
void BM_SwapSynthesis(benchmark::State& state) {
    const auto side = static_cast<std::int32_t>(state.range(0));
    for (auto _ : state) {
        util::Rng rng(13);
        auto t = topo::make_swap(side, side, rng);
        benchmark::DoNotOptimize(t);
    }
}

}  // namespace

BENCHMARK(BM_SfcGeneration)->Arg(6)->Arg(10)->Arg(16);
BENCHMARK(BM_RouteTableUpDown)->Arg(6)->Arg(10);
BENCHMARK(BM_SimulatorDrain);
BENCHMARK(BM_SimulatorSparse)->ArgName("activity")->Arg(0)->Arg(1);
BENCHMARK(BM_SimulatorHotspot)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SimulatorSingleHop)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ThermalSolve);
BENCHMARK(BM_ModelZooResNet50);
BENCHMARK(BM_FloretTopologyBuild);
BENCHMARK(BM_SwapSynthesis)->Arg(6)->Arg(10)->Arg(16)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
