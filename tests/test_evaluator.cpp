#include <gtest/gtest.h>

#include <latch>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "src/core/evaluator.h"
#include "src/core/experiment.h"
#include "src/core/floret.h"
#include "src/core/mapper.h"
#include "src/core/sfc.h"
#include "src/obs/metrics.h"
#include "src/topo/mesh.h"
#include "src/util/rng.h"
#include "src/workload/tables.h"

namespace floretsim::core {
namespace {

/// A pure chain network (conv -> conv -> conv -> fc) for flow checks.
dnn::Network chain_net() {
    dnn::Network net("chain");
    const auto in = net.add_input({3, 16, 16});
    const auto c1 = net.add_conv(in, 8, 3, 1, 1, false, true);
    const auto c2 = net.add_conv(c1, 8, 3, 1, 1, false, true);
    const auto c3 = net.add_conv(c2, 16, 3, 2, 1, false, true);
    const auto g = net.add_global_pool(c3);
    net.add_fc(g, 10);
    return net;
}

MappedTask map_on_floret(const dnn::Network& net, const SfcSet& set,
                         double params_per_chiplet_m) {
    TaskSpec spec;
    spec.name = "t";
    spec.net = &net;
    spec.plan = pim::partition_by_params(
        net, static_cast<double>(net.total_params()) / 1e6, params_per_chiplet_m);
    FloretMapper mapper(set);
    auto mapped = mapper.map_queue(std::span<const TaskSpec>(&spec, 1), nullptr);
    return std::move(mapped.front());
}

TEST(PipelineFlows, UnmappedTaskHasNoFlows) {
    const auto net = chain_net();
    MappedTask task;
    task.net = &net;
    task.mapped = false;
    EXPECT_TRUE(pipeline_flows(task, 1).empty());
}

TEST(PipelineFlows, ChainOnFloretIsAllSingleHop) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    const auto topo = make_floret(set);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    // Force multiple chiplets: tiny capacity.
    const auto task = map_on_floret(net, set, 0.0005);
    ASSERT_TRUE(task.mapped);
    ASSERT_GT(task.nodes.size(), 3u);
    const auto flows = pipeline_flows(task, 1);
    ASSERT_FALSE(flows.empty());
    for (const auto& f : flows) {
        EXPECT_LE(routes.hops(f.src, f.dst), 2)
            << "pipeline flow " << f.src << "->" << f.dst << " is long-range";
    }
}

TEST(PipelineFlows, SharedChipletProducesNoTraffic) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    // Huge capacity: the whole net packs onto one chiplet.
    const auto task = map_on_floret(net, set, 1000.0);
    ASSERT_TRUE(task.mapped);
    EXPECT_EQ(task.plan.total_chiplets, 1);
    EXPECT_TRUE(pipeline_flows(task, 1).empty());
}

TEST(PipelineFlows, InterLayerVolumeIsFullEdgeVolume) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    const auto task = map_on_floret(net, set, 0.0005);
    ASSERT_TRUE(task.mapped);
    const auto flows = pipeline_flows(task, /*bytes_per_elem=*/2);
    // Find the flow for the c1 -> c2 edge: its bytes must equal
    // c1's output activations x bytes_per_elem (not split across pairs).
    const auto& c1 = net.layer(net.weight_layer_ids()[0]);
    bool found = false;
    for (const auto& f : flows) {
        if (f.bytes == 2 * c1.output_activations()) found = true;
    }
    EXPECT_TRUE(found);
}

TEST(PipelineFlows, SkipEdgesMarked) {
    dnn::Network net("res");
    const auto in = net.add_input({8, 8, 8});
    const auto c1 = net.add_conv(in, 8, 3, 1, 1, false, true);
    const auto c2 = net.add_conv(c1, 8, 3, 1, 1, false, true);
    net.add_add(c2, in);
    const auto set = generate_sfc_set(6, 6, 6);
    const auto task = map_on_floret(net, set, 0.0002);
    ASSERT_TRUE(task.mapped);
    bool has_skip = false;
    for (const auto& f : pipeline_flows(task, 1)) has_skip |= f.skip;
    EXPECT_TRUE(has_skip);
}

TEST(PipelineFlows, BytesScaleWithElementWidth) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    const auto task = map_on_floret(net, set, 0.0005);
    const auto f1 = pipeline_flows(task, 1);
    const auto f4 = pipeline_flows(task, 4);
    ASSERT_EQ(f1.size(), f4.size());
    for (std::size_t i = 0; i < f1.size(); ++i) EXPECT_EQ(4 * f1[i].bytes, f4[i].bytes);
}

TEST(EvaluateNoi, EmptyTaskListIsFreeAndComplete) {
    const auto set = generate_sfc_set(4, 4, 2);
    const auto topo = make_floret(set);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    const std::vector<MappedTask> none;
    const auto res = evaluate_noi(topo, routes, none, EvalConfig{});
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.packets, 0);
    EXPECT_DOUBLE_EQ(res.energy_pj, 0.0);
}

TEST(EvaluateNoi, MoreTrafficScaleMeansMoreEnergy) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    const auto topo = make_floret(set);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    const auto task = map_on_floret(net, set, 0.0005);
    std::vector<MappedTask> tasks{task};
    EvalConfig lo;
    lo.traffic_scale = 1.0 / 64.0;
    EvalConfig hi;
    hi.traffic_scale = 1.0 / 8.0;
    const auto rl = evaluate_noi(topo, routes, tasks, lo);
    const auto rh = evaluate_noi(topo, routes, tasks, hi);
    ASSERT_TRUE(rl.completed);
    ASSERT_TRUE(rh.completed);
    EXPECT_GT(rh.energy_pj, rl.energy_pj);
    EXPECT_GT(rh.packets, rl.packets);
}

TEST(EvaluateNoi, WeightLoadAddsTraffic) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    const auto topo = make_floret(set);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    const auto task = map_on_floret(net, set, 0.0005);
    std::vector<MappedTask> tasks{task};
    EvalConfig off;
    off.traffic_scale = 1.0 / 16.0;
    EvalConfig on = off;
    on.include_weight_load = true;
    const auto r_off = evaluate_noi(topo, routes, tasks, off);
    const auto r_on = evaluate_noi(topo, routes, tasks, on);
    ASSERT_TRUE(r_off.completed);
    ASSERT_TRUE(r_on.completed);
    EXPECT_GT(r_on.packets, r_off.packets);
    EXPECT_GT(r_on.energy_pj, r_off.energy_pj);
}

TEST(EvaluateNoi, WeightLoadOffByDefault) {
    EvalConfig cfg;
    EXPECT_FALSE(cfg.include_weight_load);
}

TEST(EvaluateNoi, MapperReleaseAllowsRemapping) {
    // The dynamic scenario's core loop: map, release, map again — the
    // second mapping reuses the freed chiplets.
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    FloretMapper mapper(set);
    TaskSpec spec;
    spec.name = "t";
    spec.net = &net;
    spec.plan = pim::partition_by_params(
        net, static_cast<double>(net.total_params()) / 1e6, 0.0005);
    auto first = mapper.map_queue(std::span<const TaskSpec>(&spec, 1), nullptr);
    ASSERT_TRUE(first.front().mapped);
    mapper.release(first.front());
    auto second = mapper.map_queue(std::span<const TaskSpec>(&spec, 1), nullptr);
    ASSERT_TRUE(second.front().mapped);
    EXPECT_EQ(first.front().nodes, second.front().nodes);
}

TEST(EvaluateNoi, WithoutReleaseSecondMappingMovesOn) {
    const auto net = chain_net();
    const auto set = generate_sfc_set(6, 6, 6);
    FloretMapper mapper(set);
    TaskSpec spec;
    spec.name = "t";
    spec.net = &net;
    spec.plan = pim::partition_by_params(
        net, static_cast<double>(net.total_params()) / 1e6, 0.0005);
    auto first = mapper.map_queue(std::span<const TaskSpec>(&spec, 1), nullptr);
    auto second = mapper.map_queue(std::span<const TaskSpec>(&spec, 1), nullptr);
    ASSERT_TRUE(first.front().mapped);
    ASSERT_TRUE(second.front().mapped);
    EXPECT_NE(first.front().nodes.front(), second.front().nodes.front());
}


/// input -> fc -> fc: placed by one_flow_task, it yields one demand of
/// `width` bytes at bytes_per_elem 1 and traffic_scale 1.
dnn::Network two_fc(const char* name, std::int32_t width) {
    dnn::Network net(name);
    const auto in = net.add_input({width, 1, 1});
    const auto f1 = net.add_fc(in, width);
    net.add_fc(f1, width);
    return net;
}

/// A hand-placed two_fc task: the first fc on `from`, the second on `to`.
MappedTask one_flow_task(const dnn::Network& net, topo::NodeId from, topo::NodeId to) {
    MappedTask t;
    t.name = net.name();
    t.net = &net;
    t.layer_nodes.resize(net.size());
    t.layer_nodes[1] = {from};
    t.layer_nodes[2] = {to};
    t.nodes = {from, to};
    t.mapped = true;
    return t;
}

EvalConfig exact_cfg() {
    EvalConfig cfg;
    cfg.traffic_scale = 1.0;
    return cfg;
}

/// Records into the global metrics registry for one test, then leaves it
/// disabled and empty for the next.
struct MetricsOn {
    MetricsOn() {
        obs::MetricsRegistry::global().reset();
        obs::MetricsRegistry::global().enable();
    }
    ~MetricsOn() {
        obs::MetricsRegistry::global().disable();
        obs::MetricsRegistry::global().reset();
    }
    MetricsOn(const MetricsOn&) = delete;
    MetricsOn& operator=(const MetricsOn&) = delete;

    [[nodiscard]] static std::int64_t counter(const char* name) {
        const util::Json snap = obs::MetricsRegistry::global().snapshot();
        const util::Json* v = snap.find("counters")->find(name);
        return v == nullptr ? 0 : v->as_int();
    }
};

TEST(NoiDemands, OneFlowTaskYieldsOneDemand) {
    const auto net = two_fc("n", 40);
    const std::vector<MappedTask> tasks{one_flow_task(net, 3, 7)};
    const auto demands = noi_demands(tasks, exact_cfg());
    ASSERT_EQ(demands.size(), 1u);
    EXPECT_EQ(demands[0].src, 3);
    EXPECT_EQ(demands[0].dst, 7);
    EXPECT_EQ(demands[0].bytes, 40);
}

TEST(NoiMemo, MatchesAFreshEvaluationBitForBit) {
    // Seeded random resident sets on every architecture and both cores:
    // the miss and the hit both equal a fresh evaluate_noi, sim_* included.
    const auto ids = workload::expand_mix(workload::table2().front());
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const auto specs = make_tasks(ids, experiment::kParamsPerChipletM, owner);
    for (const auto arch : experiment::kAllArchs) {
        auto built = experiment::make_built_arch(experiment::build_fabric(arch, 8, 8));
        NoiMemo& memo = built.fabric->noi_memo;
        std::int64_t repeats = 0;
        for (const auto core : {noc::SimCore::kReference, noc::SimCore::kActivity}) {
            for (std::uint64_t seed = 1; seed <= 3; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << experiment::arch_name(arch) << " "
                             << noc::sim_core_name(core) << " seed " << seed);
                util::Rng rng(seed);
                built.mapper->reset();
                std::vector<MappedTask> resident;
                for (std::size_t i = 0; i < specs.size(); ++i) {
                    const TaskSpec& spec = specs[rng.below(specs.size())];
                    auto mapped = built.mapper->map_queue(
                        std::span<const TaskSpec>(&spec, 1), nullptr);
                    if (mapped.front().mapped)
                        resident.push_back(std::move(mapped.front()));
                }
                ASSERT_FALSE(resident.empty());
                auto cfg = experiment::default_eval_config();
                cfg.traffic_scale = 1.0 / 512.0;
                cfg.sim.core = core;
                const auto fresh =
                    evaluate_noi(built.topology(), built.routes(), resident, cfg);
                EXPECT_GT(fresh.packets, 0);
                EXPECT_EQ(memo.evaluate(resident, cfg), fresh);
                // The same set read in place through task pointers is the
                // same key, so this lookup hits.
                std::vector<const MappedTask*> in_place;
                for (const auto& task : resident) in_place.push_back(&task);
                EXPECT_EQ(memo.evaluate(in_place, cfg), fresh);
                ++repeats;
            }
        }
        EXPECT_EQ(memo.hits() + memo.misses(), 2 * repeats);
        EXPECT_GE(memo.hits(), repeats);
    }
}

TEST(NoiMemo, ChangingAnyPartOfTheKeyMisses) {
    const auto topo = topo::make_mesh(4, 4);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    const auto small = two_fc("small", 64);
    const auto big = two_fc("big", 96);
    const std::vector<MappedTask> base{one_flow_task(small, 0, 5),
                                       one_flow_task(small, 15, 10)};
    const EvalConfig cfg = exact_cfg();

    struct Variant {
        const char* what;
        std::vector<MappedTask> tasks;
        EvalConfig cfg;
    };
    std::vector<Variant> variants;
    const auto edit = [&](const char* what, auto change) {
        EvalConfig c = cfg;
        change(c);
        variants.push_back({what, base, c});
    };
    edit("flit_bytes", [](EvalConfig& c) { c.sim.flit_bytes = 16; });
    edit("max_packet_flits", [](EvalConfig& c) { c.sim.max_packet_flits = 4; });
    edit("input_buffer_flits", [](EvalConfig& c) { c.sim.input_buffer_flits = 2; });
    edit("router_delay_cycles", [](EvalConfig& c) { c.sim.router_delay_cycles = 3; });
    edit("mm_per_cycle", [](EvalConfig& c) { c.sim.mm_per_cycle = 2.0; });
    edit("max_cycles", [](EvalConfig& c) { --c.sim.max_cycles; });
    edit("injection_rate", [](EvalConfig& c) { c.sim.injection_rate = 0.5; });
    // FLORETSIM_SIM_CORE can force one core for both settings; then they
    // are the same input and must hit.
    if (noc::resolved_sim_core(noc::SimCore::kReference) !=
        noc::resolved_sim_core(noc::SimCore::kActivity)) {
        edit("core", [](EvalConfig& c) {
            c.sim.core = c.sim.core == noc::SimCore::kActivity
                             ? noc::SimCore::kReference
                             : noc::SimCore::kActivity;
        });
    }
    edit("router_energy_base_pj",
         [](EvalConfig& c) { c.cost.router_energy_base_pj += 0.125; });
    edit("router_energy_per_port_pj",
         [](EvalConfig& c) { c.cost.router_energy_per_port_pj += 0.125; });
    edit("link_energy_per_mm_pj",
         [](EvalConfig& c) { c.cost.link_energy_per_mm_pj += 0.125; });
    variants.push_back({"one demand's bytes",
                        {one_flow_task(small, 0, 5), one_flow_task(big, 15, 10)},
                        cfg});
    variants.push_back({"order of two demands", {base[1], base[0]}, cfg});

    // The two demand-level variants change exactly what they claim to.
    const auto d0 = noi_demands(base, cfg);
    const auto d_bytes = noi_demands(variants[variants.size() - 2].tasks, cfg);
    const auto d_order = noi_demands(variants.back().tasks, cfg);
    ASSERT_EQ(d0.size(), 2u);
    ASSERT_EQ(d_bytes.size(), 2u);
    ASSERT_EQ(d_order.size(), 2u);
    EXPECT_EQ(d_bytes[0].bytes, d0[0].bytes);
    EXPECT_NE(d_bytes[1].bytes, d0[1].bytes);
    EXPECT_EQ(d_bytes[1].src, d0[1].src);
    EXPECT_EQ(d_bytes[1].dst, d0[1].dst);
    EXPECT_EQ(d_order[0].src, d0[1].src);
    EXPECT_EQ(d_order[1].src, d0[0].src);

    NoiMemo memo(topo, routes);
    (void)memo.evaluate(base, cfg);
    for (const Variant& v : variants) {
        SCOPED_TRACE(v.what);
        const auto misses = memo.misses();
        EXPECT_EQ(memo.evaluate(v.tasks, v.cfg), evaluate_noi(topo, routes, v.tasks, v.cfg));
        EXPECT_EQ(memo.misses(), misses + 1);
    }

    // Fields outside the key do not change the result, so they hit.
    EvalConfig same = cfg;
    same.cost.router_area_base_mm2 += 1.0;
    same.cost.router_leakage_base_mw += 1.0;
    const auto misses = memo.misses();
    EXPECT_EQ(memo.evaluate(base, same), evaluate_noi(topo, routes, base, cfg));
    EXPECT_EQ(memo.misses(), misses);
}

TEST(NoiMemo, EightThreadsOnOneInputSimulateOnce) {
    const auto fabric = experiment::build_fabric(experiment::Arch::kFloret, 6, 6);
    auto built = experiment::make_built_arch(fabric);
    const auto ids = workload::expand_mix(workload::table2().front());
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const auto specs = make_tasks(ids, experiment::kParamsPerChipletM, owner);
    std::vector<MappedTask> resident;
    for (auto& m : built.mapper->map_queue(specs, nullptr))
        if (m.mapped) resident.push_back(std::move(m));
    ASSERT_FALSE(resident.empty());
    auto cfg = experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;

    const MetricsOn metrics;
    constexpr int kThreads = 8;
    std::latch start(kThreads);
    std::vector<EvalResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            results[static_cast<std::size_t>(t)] = fabric->noi_memo.evaluate(resident, cfg);
        });
    for (auto& t : threads) t.join();

    EXPECT_EQ(MetricsOn::counter("sim.runs"), 1);
    EXPECT_EQ(MetricsOn::counter("noi.evals"), 1);
    EXPECT_EQ(MetricsOn::counter("noi.memo_misses"), 1);
    EXPECT_EQ(MetricsOn::counter("noi.memo_hits"), kThreads - 1);
    EXPECT_EQ(MetricsOn::counter("noi.memo_bytes"), fabric->noi_memo.bytes());
    EXPECT_GT(fabric->noi_memo.bytes(), 0);
    EXPECT_EQ(fabric->noi_memo.entries(), 1u);
    EXPECT_GT(results[0].packets, 0);
    for (const auto& r : results) EXPECT_EQ(r, results[0]);
}

TEST(NoiMemo, AnErrorIsNotStoredAndALaterCallRetries) {
    // The waiter half (an error reaches a caller blocked on the failing
    // evaluation) is pinned deterministically by ComputeOnce's own test.
    const auto topo = topo::make_mesh(4, 4);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    const auto net = two_fc("n", 64);
    // A demand whose endpoint lies outside the fabric:
    // Simulator::add_demand rejects it.
    std::vector<MappedTask> tasks{one_flow_task(net, 0, 5), one_flow_task(net, 0, 1000)};
    const EvalConfig cfg = exact_cfg();

    NoiMemo memo(topo, routes);
    EXPECT_THROW((void)memo.evaluate(tasks, cfg), std::out_of_range);
    EXPECT_EQ(memo.entries(), 0u);
    EXPECT_EQ(memo.bytes(), 0);
    EXPECT_THROW((void)memo.evaluate(tasks, cfg), std::out_of_range);
    EXPECT_EQ(memo.misses(), 2) << "the failed entry was not dropped";
    EXPECT_EQ(memo.hits(), 0);

    tasks.pop_back();
    EXPECT_EQ(memo.evaluate(tasks, cfg), evaluate_noi(topo, routes, tasks, cfg));
    EXPECT_EQ(memo.entries(), 1u);
}

TEST(NoiMemo, PastTheCapResultsStayExactAndNothingMoreIsStored) {
    const auto topo = topo::make_mesh(4, 4);
    const auto routes = noc::RouteTable::build(topo, noc::RoutingPolicy::kUpDown);
    const auto net = two_fc("n", 64);
    const std::vector<MappedTask> tasks{one_flow_task(net, 0, 15)};
    // Distinct inputs that simulate the same traffic.
    const auto input = [](std::size_t i) {
        EvalConfig cfg = exact_cfg();
        cfg.sim.max_cycles = 1'000'000 + static_cast<std::int64_t>(i);
        return cfg;
    };

    NoiMemo memo(topo, routes);
    for (std::size_t i = 0; i < NoiMemo::kMaxEntries; ++i)
        (void)memo.evaluate(tasks, input(i));
    ASSERT_EQ(memo.entries(), NoiMemo::kMaxEntries);
    const auto bytes = memo.bytes();

    const MetricsOn metrics;
    const EvalConfig over = input(NoiMemo::kMaxEntries);
    const auto fresh = evaluate_noi(topo, routes, tasks, over);
    EXPECT_EQ(memo.evaluate(tasks, over), fresh);
    EXPECT_EQ(memo.evaluate(tasks, over), fresh);
    EXPECT_EQ(MetricsOn::counter("sim.runs"), 3) << "past the cap, every call simulates";
    EXPECT_EQ(memo.misses(), static_cast<std::int64_t>(NoiMemo::kMaxEntries) + 2);
    EXPECT_EQ(memo.entries(), NoiMemo::kMaxEntries);
    EXPECT_EQ(memo.bytes(), bytes);
    EXPECT_EQ(MetricsOn::counter("noi.memo_bytes"), 0);

    // What was stored before the cap still hits.
    const auto hits = memo.hits();
    EXPECT_EQ(memo.evaluate(tasks, input(0)), evaluate_noi(topo, routes, tasks, input(0)));
    EXPECT_EQ(memo.hits(), hits + 1);
}

}  // namespace
}  // namespace floretsim::core
