#include <gtest/gtest.h>

#include <iterator>

#include "src/core/experiment.h"

namespace floretsim::core::experiment {
namespace {

EvalConfig fast_cfg() {
    auto cfg = default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;  // keep tests quick
    return cfg;
}

TEST(BuildArch, AllFourArchitecturesAreRoutable) {
    for (const auto a : kAllArchs) {
        auto b = build_arch(a, 6, 6);
        EXPECT_EQ(b.topology().node_count(), 36) << arch_name(a);
        EXPECT_TRUE(b.topology().connected()) << arch_name(a);
        EXPECT_TRUE(b.routes().complete()) << arch_name(a);
        EXPECT_NE(b.mapper, nullptr);
    }
}

TEST(BuildArch, FloretCarriesItsSfcSet) {
    auto b = build_arch(Arch::kFloret, 10, 10);
    EXPECT_EQ(b.sfc().lambda(), default_lambda(10, 10));
    EXPECT_TRUE(b.sfc().covers_grid_exactly_once());
}

TEST(BuildArch, MoveSafety) {
    // The mapper holds references into the heap topology/routes; moving
    // the struct must keep them valid (this was a real bug).
    std::vector<BuiltArch> archs;
    for (const auto a : kAllArchs) archs.push_back(build_arch(a, 6, 6));
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const std::vector<std::string> ids{"DNN9"};
    const auto tasks = make_tasks(ids, kParamsPerChipletM, owner);
    for (auto& b : archs) {
        MappingStats stats;
        const auto mapped = b.mapper->map_queue(tasks, &stats);
        EXPECT_EQ(stats.tasks_mapped, 1) << arch_name(b.arch);
        EXPECT_TRUE(mapped.front().mapped);
    }
}

TEST(DefaultLambda, PetalsOfAboutTen) {
    EXPECT_EQ(default_lambda(6, 6), 4);    // 36 -> petals of 9
    EXPECT_EQ(default_lambda(10, 10), 10); // 100 -> petals of 10
    const auto l = default_lambda(12, 12);
    EXPECT_NEAR(144.0 / l, 10.0, 3.0);
}

TEST(TaskComputeNs, PositiveAndMonotoneInDepth) {
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const std::vector<std::string> ids{"DNN9", "DNN10"};  // ResNet18/34 CIFAR
    const auto tasks = make_tasks(ids, kParamsPerChipletM, owner);
    const auto set = generate_sfc_set(10, 10, 10);
    FloretMapper mapper(set);
    const auto mapped = mapper.map_queue(tasks, nullptr);
    pim::ReramConfig rc;
    const double t18 = task_compute_ns(mapped[0], rc);
    const double t34 = task_compute_ns(mapped[1], rc);
    EXPECT_GT(t18, 0.0);
    EXPECT_GT(t34, t18);  // deeper network: more serial layer latency
}

TEST(RunMixDynamic, CompletesTheWholeQueue) {
    auto b = build_arch(Arch::kFloret, 10, 10);
    const auto& mix = workload::table2().front();  // WL1
    const auto res = run_mix_dynamic(b, mix, fast_cfg());
    EXPECT_TRUE(res.all_completed);
    EXPECT_GT(res.rounds, 0);
    // Every task runs 1..3 rounds: task_rounds within those bounds.
    const auto n = mix.total_instances();
    EXPECT_GE(res.task_rounds, n);
    EXPECT_LE(res.task_rounds, 3 * n);
}

TEST(RunMixDynamic, DeterministicForSeed) {
    const auto& mix = workload::table2()[4];  // WL5
    auto b1 = build_arch(Arch::kSiamMesh, 10, 10, 13, 2);
    auto b2 = build_arch(Arch::kSiamMesh, 10, 10, 13, 2);
    const auto r1 = run_mix_dynamic(b1, mix, fast_cfg(), 9);
    const auto r2 = run_mix_dynamic(b2, mix, fast_cfg(), 9);
    EXPECT_DOUBLE_EQ(r1.total_cycles, r2.total_cycles);
    EXPECT_DOUBLE_EQ(r1.total_energy_pj, r2.total_energy_pj);
    EXPECT_EQ(r1.rounds, r2.rounds);
}

TEST(RunMixDynamic, IdenticalWorkAcrossArchitectures) {
    // The per-task durations depend only on the seed, so every
    // architecture must execute the same number of task-rounds.
    const auto& mix = workload::table2()[1];  // WL2
    std::vector<std::int64_t> task_rounds;
    for (const auto a : kAllArchs) {
        auto b = build_arch(a, 10, 10, 13, 2);
        const auto res = run_mix_dynamic(b, mix, fast_cfg());
        EXPECT_TRUE(res.all_completed) << arch_name(a);
        task_rounds.push_back(res.task_rounds);
    }
    for (const auto tr : task_rounds) EXPECT_EQ(tr, task_rounds.front());
}

TEST(RunMixDynamic, StrictGapBurnsMoreRoundsOnSwap) {
    // The Fig. 3 mechanism: fragmentation under the contiguity budget
    // lowers concurrency, so the same work takes more rounds on SWAP than
    // on Floret.
    const auto& mix = workload::table2().front();
    auto swap = build_arch(Arch::kSwap, 10, 10, 13, 2);
    auto floret = build_arch(Arch::kFloret, 10, 10);
    const auto rs = run_mix_dynamic(swap, mix, fast_cfg());
    const auto rf = run_mix_dynamic(floret, mix, fast_cfg());
    EXPECT_GE(rs.rounds, rf.rounds);
    EXPECT_LE(static_cast<double>(rs.task_rounds) / rs.rounds,
              static_cast<double>(rf.task_rounds) / rf.rounds);
}

TEST(RunMixDynamic, EpochReuseMatchesSimulatingEveryRound) {
    // Goldens recorded with a fresh NoI simulation in every round (Floret
    // 10x10, fast_cfg, seed 7). Reusing the previous round's result while
    // the resident set is unchanged must reproduce them bit for bit.
    struct Golden {
        const char* mix;
        double total_cycles;
        double total_energy_pj;
        std::int64_t flit_hops;
        std::int64_t rounds;
        std::int64_t task_rounds;
    };
    const Golden goldens[] = {
        {"WL1", 26867.1875, 4472325.2624999713, 74218, 19, 55},
        {"WL2", 40021.390625, 6513396.096874956, 60614, 18, 37},
        {"WL3", 95803.2734375, 15834418.69781239, 226453, 46, 104},
        {"WL4", 47741, 7865640.7199999448, 104748, 29, 45},
        {"WL5", 59947.78125, 9737280.853749929, 84733, 34, 46},
    };
    const auto& mixes = workload::table2();
    ASSERT_EQ(mixes.size(), std::size(goldens));
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const Golden& g = goldens[i];
        SCOPED_TRACE(g.mix);
        ASSERT_EQ(mixes[i].name, g.mix);
        auto b = build_arch(Arch::kFloret, 10, 10);
        const auto r = run_mix_dynamic(b, mixes[i], fast_cfg(), 7);
        EXPECT_EQ(r.total_cycles, g.total_cycles);
        EXPECT_EQ(r.total_energy_pj, g.total_energy_pj);
        EXPECT_EQ(r.flit_hops, g.flit_hops);
        EXPECT_EQ(r.rounds, g.rounds);
        EXPECT_EQ(r.task_rounds, g.task_rounds);
        EXPECT_TRUE(r.all_completed);
        // Every round either looked its drain up or reused the previous one.
        EXPECT_EQ(r.noi_evals + r.round_epoch_hits, r.rounds);
    }
}

TEST(RunMixDynamic, RoundEpochCacheFiresOnUnchangedResidency) {
    // At least one Table II mix must hold a resident set across rounds
    // (tasks run 1..3 rounds, so multi-round residents are common).
    std::int64_t hits = 0;
    for (const auto& mix : workload::table2()) {
        auto b = build_arch(Arch::kFloret, 10, 10);
        hits += run_mix_dynamic(b, mix, fast_cfg(), 7).round_epoch_hits;
    }
    EXPECT_GT(hits, 0);
}

TEST(RunMixDynamic, RelaxationRescuesCorneredHeadTask) {
    // On a tiny system with a tight gap budget, the head task may fail on
    // an idle machine; map_one_relaxed must rescue it so the queue drains.
    const auto& mix = workload::table2()[1];  // WL2 has a 94-chiplet VGG19
    auto b = build_arch(Arch::kSiamMesh, 10, 10, 13, /*greedy_max_gap=*/1);
    const auto res = run_mix_dynamic(b, mix, fast_cfg());
    EXPECT_TRUE(res.all_completed);
}

}  // namespace
}  // namespace floretsim::core::experiment
