#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "src/serve/cluster.h"
#include "src/serve/sweep.h"
#include "src/util/stats.h"

namespace floretsim::serve {
namespace {

using core::experiment::Arch;

/// Small, fast serving scenario: CIFAR-class models on a 6x6 fabric,
/// loaded hard enough to queue.
ServeConfig quick_cfg() {
    ServeConfig cfg = default_serve_config();
    cfg.eval.traffic_scale = 1.0 / 256.0;  // keep tests quick
    cfg.classes = {
        {"tight", {"DNN11", "DNN13"}, 0.5, 30'000.0},
        {"loose", {"DNN9", "DNN10"}, 0.5, 200'000.0},
    };
    cfg.arrivals.rate_per_mcycle = 600.0;
    cfg.arrivals.max_requests = 25;
    cfg.seed = 5;
    return cfg;
}

void expect_identical(const ServeStats& a, const ServeStats& b) {
    EXPECT_EQ(a.arrived, b.arrived);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.sla_violations, b.sla_violations);
    EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
    EXPECT_EQ(a.throughput_per_mcycle, b.throughput_per_mcycle);
    EXPECT_EQ(a.mean_utilization, b.mean_utilization);
    EXPECT_EQ(a.mean_queue_depth, b.mean_queue_depth);
    EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
    EXPECT_EQ(a.mean_wait_cycles, b.mean_wait_cycles);
    EXPECT_EQ(a.mean_latency_cycles, b.mean_latency_cycles);
    EXPECT_EQ(a.p50_latency_cycles, b.p50_latency_cycles);
    EXPECT_EQ(a.p95_latency_cycles, b.p95_latency_cycles);
    EXPECT_EQ(a.p99_latency_cycles, b.p99_latency_cycles);
    EXPECT_EQ(a.noi_rounds, b.noi_rounds);
    EXPECT_EQ(a.noi_cache_hits, b.noi_cache_hits);
    EXPECT_EQ(a.batched_requests, b.batched_requests);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.sim_cycles_stepped, b.sim_cycles_stepped);
    EXPECT_EQ(a.sim_cycles_skipped, b.sim_cycles_skipped);
    EXPECT_EQ(a.sim_horizon_jumps, b.sim_horizon_jumps);
    ASSERT_EQ(a.per_class.size(), b.per_class.size());
    for (std::size_t c = 0; c < a.per_class.size(); ++c) {
        EXPECT_EQ(a.per_class[c].arrived, b.per_class[c].arrived);
        EXPECT_EQ(a.per_class[c].completed, b.per_class[c].completed);
        EXPECT_EQ(a.per_class[c].violations, b.per_class[c].violations);
    }
}

/// quick_cfg slammed hard enough that admissions contend: the queue grows,
/// EDF ordering matters, and batching/eviction have real work to do.
ServeConfig slam_cfg() {
    ServeConfig cfg = quick_cfg();
    cfg.arrivals.rate_per_mcycle = 50'000.0;
    cfg.arrivals.min_rounds = 2;
    cfg.arrivals.max_rounds = 3;
    return cfg;
}

/// The serving-side conservation laws and orderings that must hold for
/// every drained run, whatever the policy, batch cap, or seed.
void expect_invariants(const ServeStats& s) {
    EXPECT_TRUE(s.drained);
    EXPECT_EQ(s.arrived, s.completed + s.rejected);
    // Preempted members go back to the queue and are admitted again, so
    // admissions exceed completions by exactly the preemption count.
    EXPECT_EQ(s.admitted, s.completed + s.preemptions);
    EXPECT_GE(s.preemptions, s.evictions);  // every eviction preempts >= 1
    EXPECT_GE(s.noi_rounds, s.noi_cache_hits);
    EXPECT_GE(s.mean_utilization, 0.0);
    EXPECT_LE(s.mean_utilization, 1.0);
    EXPECT_GE(s.makespan_cycles, 0.0);
    if (s.completed > 0) {
        // The P2 percentile estimators are maintained independently, so
        // adjacent quantiles can cross by a sliver on small samples;
        // require ordering only up to 1% slack.
        EXPECT_LE(s.p50_latency_cycles, s.p95_latency_cycles * 1.01 + 1e-9);
        EXPECT_LE(s.p95_latency_cycles, s.p99_latency_cycles * 1.01 + 1e-9);
        EXPECT_GE(s.mean_latency_cycles, s.mean_wait_cycles);
    }
    std::int64_t cls_arrived = 0, cls_completed = 0, cls_violations = 0;
    for (const auto& c : s.per_class) {
        cls_arrived += c.arrived;
        cls_completed += c.completed;
        cls_violations += c.violations;
    }
    EXPECT_EQ(cls_arrived, s.arrived);
    EXPECT_EQ(cls_completed, s.completed);
    // Rejections and late completions both count as violations, in the
    // total and in their class.
    EXPECT_EQ(cls_violations, s.sla_violations);
    EXPECT_GE(s.sla_violations, s.rejected);
}

// ------------------------------------------------------------------ arrivals

TEST(Arrivals, DeterministicAndSorted) {
    const auto classes = default_request_classes();
    ArrivalConfig cfg;
    cfg.max_requests = 50;
    const auto a = generate_requests(cfg, classes, 9);
    const auto b = generate_requests(cfg, classes, 9);
    ASSERT_EQ(a.size(), 50u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_cycle, b[i].arrival_cycle);
        EXPECT_EQ(a[i].workload_id, b[i].workload_id);
        EXPECT_EQ(a[i].rounds, b[i].rounds);
        if (i) {
            EXPECT_GE(a[i].arrival_cycle, a[i - 1].arrival_cycle);
        }
        EXPECT_GT(a[i].deadline_cycle, a[i].arrival_cycle);
    }
    const auto c = generate_requests(cfg, classes, 10);
    EXPECT_NE(a.front().arrival_cycle, c.front().arrival_cycle);
}

TEST(Arrivals, MmppIsSortedAndBurstier) {
    const auto classes = default_request_classes();
    ArrivalConfig cfg;
    cfg.max_requests = 400;
    ArrivalConfig mmpp = cfg;
    mmpp.process = ArrivalProcess::kMmpp;
    const auto poisson = generate_requests(cfg, classes, 3);
    const auto bursty = generate_requests(mmpp, classes, 3);
    ASSERT_EQ(bursty.size(), 400u);
    EXPECT_TRUE(std::is_sorted(bursty.begin(), bursty.end(),
                               [](const Request& a, const Request& b) {
                                   return a.arrival_cycle < b.arrival_cycle;
                               }));
    // Squared-coefficient-of-variation of the gaps: MMPP > Poisson.
    const auto scv = [](const std::vector<Request>& rs) {
        util::RunningStats gaps;
        for (std::size_t i = 1; i < rs.size(); ++i)
            gaps.add(rs[i].arrival_cycle - rs[i - 1].arrival_cycle);
        return gaps.variance() / (gaps.mean() * gaps.mean());
    };
    EXPECT_GT(scv(bursty), scv(poisson));
}

TEST(Arrivals, TraceReplaysGivenCycles) {
    const auto classes = default_request_classes();
    ArrivalConfig cfg;
    cfg.process = ArrivalProcess::kTrace;
    cfg.trace_cycles = {10.0, 250.0, 250.0, 4000.0};
    cfg.max_requests = 3;  // caps the replay
    const auto reqs = generate_requests(cfg, classes, 1);
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].arrival_cycle, 10.0);
    EXPECT_EQ(reqs[1].arrival_cycle, 250.0);
    EXPECT_EQ(reqs[2].arrival_cycle, 250.0);
}

TEST(Arrivals, RejectsInvalidConfigs) {
    const auto classes = default_request_classes();
    ArrivalConfig cfg;
    EXPECT_THROW((void)generate_requests(cfg, {}, 1), std::invalid_argument);
    cfg.rate_per_mcycle = 0.0;
    EXPECT_THROW((void)generate_requests(cfg, classes, 1), std::invalid_argument);
    cfg.rate_per_mcycle = 10.0;
    cfg.trace_cycles = {5.0, 1.0};
    EXPECT_THROW((void)generate_requests(cfg, classes, 1), std::invalid_argument);
}

// ----------------------------------------------------------------- simulator

TEST(Serve, EveryRequestCompletesOrBounces) {
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, quick_cfg());
    EXPECT_TRUE(s.drained);
    EXPECT_EQ(s.arrived, 25);
    EXPECT_EQ(s.arrived, s.completed + s.rejected);
    EXPECT_EQ(s.admitted, s.completed);
    EXPECT_GT(s.mean_utilization, 0.0);
    EXPECT_LE(s.mean_utilization, 1.0);
    EXPECT_LE(s.p50_latency_cycles, s.p95_latency_cycles);
    EXPECT_LE(s.p95_latency_cycles, s.p99_latency_cycles);
    EXPECT_GT(s.makespan_cycles, 0.0);
    std::int64_t class_completed = 0;
    for (const auto& c : s.per_class) class_completed += c.completed;
    EXPECT_EQ(class_completed, s.completed);
}

TEST(Serve, RepeatedRunsWithSameSeedAreIdentical) {
    const auto cfg = quick_cfg();
    auto arch_a = core::experiment::build_arch(Arch::kFloret, 6, 6);
    auto arch_b = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto a = serve_requests(arch_a, cfg);
    const auto b = serve_requests(arch_b, cfg);
    expect_identical(a, b);
    // And a reused arch: serve_requests resets the mapper first.
    const auto c = serve_requests(arch_a, cfg);
    expect_identical(a, c);
}

TEST(Serve, EpochReuseFiresOnRepeatedRounds) {
    auto cfg = quick_cfg();
    cfg.arrivals.min_rounds = 2;
    cfg.arrivals.max_rounds = 3;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, cfg);
    EXPECT_GT(s.noi_rounds, 0);
    EXPECT_GT(s.noi_cache_hits, 0);
    EXPECT_LT(s.noi_cache_hits, s.noi_rounds);
}

TEST(Serve, AdmissionBurstCostsOneNoiEvaluation) {
    // A 94-chiplet VGG19 holds the fabric while four 10-chiplet VGG11
    // requests queue behind it; its completion drains all four in a single
    // try_admit burst. The round schedule is deferred until the burst
    // completes, so the whole wave costs exactly one evaluate_noi and
    // every admit's round_done is computed against the final resident set
    // (the old code evaluated once per admission, each against a stale
    // intermediate set).
    ServeConfig cfg = default_serve_config();
    cfg.eval.traffic_scale = 1.0 / 256.0;
    cfg.classes = {
        {"big", {"DNN7"}, 0.35, 500'000.0},
        {"small", {"DNN11"}, 0.65, 500'000.0},
    };
    cfg.arrivals.process = ArrivalProcess::kTrace;
    cfg.arrivals.trace_cycles = {10.0, 20.0, 30.0, 40.0, 50.0};
    cfg.arrivals.max_requests = 5;
    cfg.arrivals.min_rounds = 1;
    cfg.arrivals.max_rounds = 1;
    cfg.seed = 2;  // chosen so the stream is DNN7 then 4x DNN11 (checked)
    const auto stream =
        generate_requests(cfg.arrivals, cfg.classes, cfg.seed);
    ASSERT_EQ(stream.size(), 5u);
    ASSERT_EQ(stream[0].workload_id, "DNN7");
    for (std::size_t i = 1; i < 5; ++i)
        ASSERT_EQ(stream[i].workload_id, "DNN11") << i;

    auto arch = core::experiment::build_arch(Arch::kFloret, 10, 10);
    const auto s = serve_requests(arch, cfg);
    ASSERT_TRUE(s.drained);
    ASSERT_EQ(s.admitted, 5);
    EXPECT_EQ(s.noi_rounds, 5);  // one round per request
    // Two wormhole simulations in total: one for the VGG19's solo round,
    // one for the burst of four VGG11s; the burst's other three rounds
    // reuse its residency epoch.
    EXPECT_EQ(s.noi_rounds - s.noi_cache_hits, 2);
}

TEST(Serve, RejectOnFullBoundsTheQueue) {
    auto cfg = quick_cfg();
    cfg.arrivals.rate_per_mcycle = 50'000.0;  // slam the queue
    cfg.arrivals.min_rounds = 2;
    cfg.admission = AdmissionPolicy::kRejectOnFull;
    cfg.max_queue = 2;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, cfg);
    EXPECT_GT(s.rejected, 0);
    EXPECT_LE(s.peak_queue_depth, 2);
    EXPECT_EQ(s.arrived, s.completed + s.rejected);
    // Same stream, unbounded FIFO: nothing bounces, the queue grows past
    // the bound, and every rejection above was an SLA violation.
    cfg.admission = AdmissionPolicy::kFifo;
    auto arch2 = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto f = serve_requests(arch2, cfg);
    EXPECT_EQ(f.rejected, 0);
    EXPECT_EQ(f.completed, f.arrived);
    EXPECT_GT(f.peak_queue_depth, 2);
    EXPECT_GE(s.sla_violations, s.rejected);
}

TEST(Serve, EarliestDeadlineFavorsTheTightClass) {
    // Under overload, serving tight-SLO requests first must not violate
    // *more* of them than arrival-order admission does on the same stream.
    auto cfg = quick_cfg();
    cfg.arrivals.rate_per_mcycle = 2000.0;
    cfg.arrivals.max_requests = 30;
    auto arch_fifo = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto fifo = serve_requests(arch_fifo, cfg);
    cfg.admission = AdmissionPolicy::kEarliestDeadline;
    auto arch_edf = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto edf = serve_requests(arch_edf, cfg);
    EXPECT_EQ(fifo.arrived, edf.arrived);
    EXPECT_EQ(fifo.per_class[0].arrived, edf.per_class[0].arrived);
    EXPECT_LE(edf.per_class[0].violations, fifo.per_class[0].violations);
}

// ----------------------------------------------------- differential pin
// Exact-value goldens captured from the pre-cluster serving simulator.
// With max_batch == 1, no eviction policy, and a single fabric, the
// cluster front-end must reproduce the legacy serve_requests() results
// bit for bit — any drift here is a behavior change, not a refactor.

TEST(DifferentialPin, QuickConfigMatchesPreClusterGoldens) {
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, quick_cfg());
    EXPECT_EQ(s.arrived, 25);
    EXPECT_EQ(s.admitted, 25);
    EXPECT_EQ(s.completed, 25);
    EXPECT_EQ(s.rejected, 0);
    EXPECT_EQ(s.sla_violations, 0);
    EXPECT_EQ(s.makespan_cycles, 50305.302946324504);
    EXPECT_EQ(s.throughput_per_mcycle, 496.96549937637525);
    EXPECT_EQ(s.mean_utilization, 0.017448890076767188);
    EXPECT_EQ(s.mean_queue_depth, 0.0);
    EXPECT_EQ(s.peak_queue_depth, 1);
    EXPECT_EQ(s.mean_wait_cycles, 0.0);
    EXPECT_EQ(s.mean_latency_cycles, 91.296874999999986);
    EXPECT_EQ(s.p50_latency_cycles, 88.3127192212864);
    EXPECT_EQ(s.p95_latency_cycles, 151.57355375744046);
    EXPECT_EQ(s.p99_latency_cycles, 151.57355375744046);
    EXPECT_EQ(s.noi_rounds, 48);
    // Rounds under an unchanged residency; the other 25 look their drain
    // up in the fabric's NoiMemo.
    EXPECT_EQ(s.noi_cache_hits, 23);
    // The legacy path never batches, preempts, or evicts.
    EXPECT_EQ(s.batched_requests, 0);
    EXPECT_EQ(s.preemptions, 0);
    EXPECT_EQ(s.evictions, 0);
    EXPECT_TRUE(s.drained);
}

TEST(DifferentialPin, GoldensHoldAcrossSimCores) {
    // Both cycle engines must agree on every serve-visible stat (only the
    // stepped/skipped accounting differs), and that accounting itself is
    // pinned. It sums the engine work of every memo lookup, hits included.
    auto ref_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    auto base = quick_cfg();
    base.eval.sim.core = noc::SimCore::kReference;
    const auto ref = serve_requests(ref_arch, base);
    EXPECT_EQ(ref.makespan_cycles, 50305.302946324504);
    EXPECT_EQ(ref.sim_cycles_stepped, 433);
    EXPECT_EQ(ref.sim_cycles_skipped, 0);
    EXPECT_EQ(ref.sim_horizon_jumps, 0);

    auto cfg = quick_cfg();
    cfg.eval.sim.core = noc::SimCore::kActivity;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, cfg);
    EXPECT_EQ(s.makespan_cycles, ref.makespan_cycles);
    EXPECT_EQ(s.p99_latency_cycles, ref.p99_latency_cycles);
    EXPECT_EQ(s.throughput_per_mcycle, ref.throughput_per_mcycle);
    EXPECT_EQ(s.noi_rounds, ref.noi_rounds);
    EXPECT_EQ(s.noi_cache_hits, ref.noi_cache_hits);
    EXPECT_EQ(s.sim_cycles_stepped, 365);
    EXPECT_EQ(s.sim_cycles_skipped, 68);
    EXPECT_EQ(s.sim_horizon_jumps, 62);
}

TEST(DifferentialPin, SlamGoldensAcrossAdmissionPolicies) {
    auto fifo_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto fifo = serve_requests(fifo_arch, slam_cfg());
    EXPECT_EQ(fifo.arrived, 25);
    EXPECT_EQ(fifo.completed, 25);
    EXPECT_EQ(fifo.rejected, 0);
    EXPECT_EQ(fifo.makespan_cycles, 1564.8363520416287);
    EXPECT_EQ(fifo.throughput_per_mcycle, 15976.111474776715);
    EXPECT_EQ(fifo.mean_utilization, 0.81455840796123069);
    EXPECT_EQ(fifo.mean_queue_depth, 6.3890183177526438);
    EXPECT_EQ(fifo.peak_queue_depth, 15);
    EXPECT_EQ(fifo.mean_wait_cycles, 399.9107246991677);
    EXPECT_EQ(fifo.mean_latency_cycles, 545.84322469916765);
    EXPECT_EQ(fifo.p50_latency_cycles, 656.4320656154714);
    EXPECT_EQ(fifo.p95_latency_cycles, 863.48875676678995);
    EXPECT_EQ(fifo.p99_latency_cycles, 863.51780651973024);
    EXPECT_EQ(fifo.noi_rounds, 65);
    EXPECT_EQ(fifo.noi_cache_hits, 41);
    ASSERT_EQ(fifo.per_class.size(), 2u);
    EXPECT_EQ(fifo.per_class[0].arrived, 13);
    EXPECT_EQ(fifo.per_class[0].completed, 13);
    EXPECT_EQ(fifo.per_class[0].violations, 0);
    EXPECT_EQ(fifo.per_class[1].arrived, 12);
    EXPECT_EQ(fifo.per_class[1].completed, 12);
    EXPECT_EQ(fifo.per_class[1].violations, 0);

    auto edf_cfg = slam_cfg();
    edf_cfg.admission = AdmissionPolicy::kEarliestDeadline;
    auto edf_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto edf = serve_requests(edf_arch, edf_cfg);
    EXPECT_EQ(edf.makespan_cycles, 1748.5600133140658);
    EXPECT_EQ(edf.throughput_per_mcycle, 14297.478959625305);
    EXPECT_EQ(edf.mean_utilization, 0.77416752934377386);
    EXPECT_EQ(edf.mean_queue_depth, 4.6861950323861556);
    EXPECT_EQ(edf.peak_queue_depth, 12);
    EXPECT_EQ(edf.mean_wait_cycles, 327.7637299288578);
    EXPECT_EQ(edf.mean_latency_cycles, 484.33622992885785);
    EXPECT_EQ(edf.p50_latency_cycles, 396.0568357321402);
    EXPECT_EQ(edf.p95_latency_cycles, 1035.7609238352654);
    EXPECT_EQ(edf.p99_latency_cycles, 1036.1607526425837);
    EXPECT_EQ(edf.noi_rounds, 65);
    EXPECT_EQ(edf.noi_cache_hits, 40);

    auto rof_cfg = slam_cfg();
    rof_cfg.admission = AdmissionPolicy::kRejectOnFull;
    rof_cfg.max_queue = 2;
    auto rof_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto rof = serve_requests(rof_arch, rof_cfg);
    EXPECT_EQ(rof.arrived, 25);
    EXPECT_EQ(rof.admitted, 13);
    EXPECT_EQ(rof.completed, 13);
    EXPECT_EQ(rof.rejected, 12);
    EXPECT_EQ(rof.sla_violations, 12);
    EXPECT_EQ(rof.makespan_cycles, 904.85197704162874);
    EXPECT_EQ(rof.throughput_per_mcycle, 14366.990767377105);
    EXPECT_EQ(rof.mean_utilization, 0.7970610006072204);
    EXPECT_EQ(rof.mean_queue_depth, 0.94265856653312563);
    EXPECT_EQ(rof.peak_queue_depth, 2);
    EXPECT_EQ(rof.mean_wait_cycles, 65.612805200209735);
    EXPECT_EQ(rof.mean_latency_cycles, 217.10078596944052);
    EXPECT_EQ(rof.p50_latency_cycles, 233.95535692748402);
    EXPECT_EQ(rof.p95_latency_cycles, 274.91084383622672);
    EXPECT_EQ(rof.p99_latency_cycles, 274.91084383622672);
    EXPECT_EQ(rof.noi_rounds, 33);
    EXPECT_EQ(rof.noi_cache_hits, 19);
    ASSERT_EQ(rof.per_class.size(), 2u);
    EXPECT_EQ(rof.per_class[0].completed, 5);
    EXPECT_EQ(rof.per_class[0].violations, 8);
    EXPECT_EQ(rof.per_class[1].completed, 8);
    EXPECT_EQ(rof.per_class[1].violations, 4);
}

TEST(DifferentialPin, BatchAlphaIsInertAtBatchCapOne) {
    // batch_traffic_alpha only scales rounds with m > 1 members; with
    // max_batch == 1 even an absurd alpha must leave the goldens intact.
    auto cfg = quick_cfg();
    cfg.max_batch = 1;
    cfg.batch_traffic_alpha = 9.75;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, cfg);
    EXPECT_EQ(s.makespan_cycles, 50305.302946324504);
    EXPECT_EQ(s.p99_latency_cycles, 151.57355375744046);
    EXPECT_EQ(s.batched_requests, 0);
}

TEST(DifferentialPin, SingleFabricClusterMatchesServeRequests) {
    // serve_requests is a K=1 cluster by construction; pin the wrapper and
    // the fabric-level accounting it implies.
    const auto cfg = slam_cfg();
    auto direct_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto direct = serve_requests(direct_arch, cfg);
    std::vector<core::experiment::BuiltArch> fabrics;
    fabrics.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    const auto cluster =
        serve_cluster(std::span(fabrics), cfg, BalancePolicy::kLeastLoaded);
    expect_identical(direct, cluster.serve);
    ASSERT_EQ(cluster.fabric_arrivals.size(), 1u);
    EXPECT_EQ(cluster.fabric_arrivals[0], direct.arrived);
    EXPECT_EQ(cluster.fabric_completed[0], direct.completed);
}

TEST(DifferentialPin, ThreadCountsPreserveGoldens) {
    // The engine-replication path at any thread count must land on the
    // same bits as the direct golden run (seed 5 == quick_cfg's seed).
    ServeSpec spec;
    spec.arch = Arch::kFloret;
    spec.width = 6;
    spec.height = 6;
    spec.config = quick_cfg();
    spec.replications = 1;
    spec.base_seed = 5;
    for (const std::int32_t threads : {1, 3, 8}) {
        core::SweepEngine engine(threads);
        const auto runs = run_replications(engine, spec);
        ASSERT_EQ(runs.size(), 1u);
        EXPECT_EQ(runs[0].makespan_cycles, 50305.302946324504);
        EXPECT_EQ(runs[0].p95_latency_cycles, 151.57355375744046);
        EXPECT_EQ(runs[0].noi_rounds, 48);
    }
}

// ------------------------------------------------------------------ batching

TEST(Batching, CoalescesSameModelRequestsAndSavesRounds) {
    auto cfg = slam_cfg();
    auto solo_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto solo = serve_requests(solo_arch, cfg);
    cfg.max_batch = 4;
    auto batch_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto batched = serve_requests(batch_arch, cfg);
    expect_invariants(batched);
    EXPECT_EQ(batched.arrived, solo.arrived);
    EXPECT_EQ(batched.completed, solo.completed);
    EXPECT_EQ(batched.batched_requests, 12);
    // Coalesced members ride the leader's rounds: strictly fewer NoI
    // rounds and a shorter makespan than the serial run of this stream.
    EXPECT_EQ(batched.noi_rounds, 36);
    EXPECT_LT(batched.noi_rounds, solo.noi_rounds);
    EXPECT_LT(batched.makespan_cycles, solo.makespan_cycles);
}

TEST(Batching, BatchCapBoundsCoalescing) {
    // Cap 2 batches fewer requests than cap 4 on the same stream, and a
    // member only ever joins a residency for its own workload.
    auto cfg = slam_cfg();
    cfg.max_batch = 2;
    auto arch2 = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto cap2 = serve_requests(arch2, cfg);
    expect_invariants(cap2);
    cfg.max_batch = 4;
    auto arch4 = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto cap4 = serve_requests(arch4, cfg);
    EXPECT_GT(cap2.batched_requests, 0);
    EXPECT_LE(cap2.batched_requests, cap4.batched_requests);
    EXPECT_GE(cap2.noi_rounds, cap4.noi_rounds);
}

TEST(Batching, AlphaStretchesBatchedRounds) {
    // alpha scales the compute term of multi-member rounds, so a costlier
    // alpha serves the same stream no faster. (Round timing shifts which
    // arrivals find a joinable residency, so batch counts may differ —
    // both runs must still obey the conservation laws.)
    auto cfg = slam_cfg();
    cfg.max_batch = 4;
    cfg.batch_traffic_alpha = 0.0;
    auto free_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto free_rounds = serve_requests(free_arch, cfg);
    cfg.batch_traffic_alpha = 2.0;
    auto costly_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto costly = serve_requests(costly_arch, cfg);
    expect_invariants(free_rounds);
    expect_invariants(costly);
    EXPECT_GT(free_rounds.batched_requests, 0);
    EXPECT_GT(costly.batched_requests, 0);
    EXPECT_LE(free_rounds.makespan_cycles, costly.makespan_cycles);
}

// ------------------------------------------------------------------ eviction

TEST(Eviction, PreemptsForTighterDeadlinesAndConserves) {
    auto cfg = slam_cfg();
    cfg.admission = AdmissionPolicy::kEdfEvict;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, cfg);
    expect_invariants(s);
    EXPECT_EQ(s.arrived, 25);
    EXPECT_EQ(s.completed, 25);  // preempted work is re-queued, not lost
    EXPECT_EQ(s.rejected, 0);
    EXPECT_EQ(s.evictions, 2);
    EXPECT_EQ(s.preemptions, 2);
    EXPECT_EQ(s.admitted, 27);  // 25 requests + 2 re-admissions
}

TEST(Eviction, ComposesWithBatching) {
    // An evicted residency preempts every member riding it.
    auto cfg = slam_cfg();
    cfg.admission = AdmissionPolicy::kEdfEvict;
    cfg.max_batch = 4;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto s = serve_requests(arch, cfg);
    expect_invariants(s);
    EXPECT_EQ(s.completed, 25);
    EXPECT_EQ(s.evictions, 2);
    EXPECT_EQ(s.preemptions, 4);
    EXPECT_EQ(s.admitted, 29);
    EXPECT_GT(s.batched_requests, 0);
}

TEST(Eviction, MapperFullyReleasedAfterEvictionRuns) {
    // If an eviction leaked chiplets, a second run on the same arch would
    // map differently (or fail to drain). Bit-identical reruns prove the
    // busy/footprint ledger returns to empty.
    auto cfg = slam_cfg();
    cfg.admission = AdmissionPolicy::kEdfEvict;
    cfg.max_batch = 4;
    auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto first = serve_requests(arch, cfg);
    ASSERT_GT(first.evictions, 0);
    const auto second = serve_requests(arch, cfg);
    expect_identical(first, second);
}

TEST(Eviction, DoesNotHurtTheTightClass) {
    // Eviction exists to rescue tight deadlines: under overload the tight
    // class must violate no more than it does under plain EDF admission.
    auto cfg = slam_cfg();
    cfg.arrivals.max_requests = 30;
    cfg.admission = AdmissionPolicy::kEarliestDeadline;
    auto edf_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto edf = serve_requests(edf_arch, cfg);
    cfg.admission = AdmissionPolicy::kEdfEvict;
    auto evict_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto evict = serve_requests(evict_arch, cfg);
    EXPECT_EQ(edf.per_class[0].arrived, evict.per_class[0].arrived);
    EXPECT_LE(evict.per_class[0].violations, edf.per_class[0].violations);
}

// ------------------------------------------------------- invariant sweep

TEST(ServeProperty, InvariantsHoldAcrossSeedsPoliciesAndBatchCaps) {
    // Seeded random arrival streams across the policy x batch-cap grid:
    // every drained run obeys the conservation laws, and the features
    // that should be off really are off.
    for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
        for (const auto policy :
             {AdmissionPolicy::kFifo, AdmissionPolicy::kEarliestDeadline,
              AdmissionPolicy::kRejectOnFull, AdmissionPolicy::kEdfEvict}) {
            for (const std::int32_t cap : {1, 3}) {
                auto cfg = slam_cfg();
                cfg.seed = seed;
                cfg.admission = policy;
                cfg.max_batch = cap;
                if (policy == AdmissionPolicy::kRejectOnFull)
                    cfg.max_queue = 3;
                auto arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
                const auto s = serve_requests(arch, cfg);
                SCOPED_TRACE(testing::Message()
                             << "seed=" << seed << " policy="
                             << admission_policy_name(policy)
                             << " cap=" << cap);
                expect_invariants(s);
                EXPECT_EQ(s.arrived, 25);
                if (cap == 1) {
                    EXPECT_EQ(s.batched_requests, 0);
                }
                if (policy != AdmissionPolicy::kEdfEvict) {
                    EXPECT_EQ(s.preemptions, 0);
                    EXPECT_EQ(s.evictions, 0);
                }
                if (policy != AdmissionPolicy::kRejectOnFull) {
                    EXPECT_EQ(s.rejected, 0);
                }
            }
        }
    }
}

TEST(ServeProperty, MmppAndTraceStreamsDrainUnderEviction) {
    // The bursty and replayed arrival processes exercise the same laws.
    auto cfg = slam_cfg();
    cfg.admission = AdmissionPolicy::kEdfEvict;
    cfg.max_batch = 3;
    cfg.arrivals.process = ArrivalProcess::kMmpp;
    auto mmpp_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    expect_invariants(serve_requests(mmpp_arch, cfg));
    cfg.arrivals.process = ArrivalProcess::kTrace;
    cfg.arrivals.trace_cycles = {10.0, 10.0, 15.0, 200.0, 201.0,
                                 202.0, 500.0, 2000.0};
    cfg.arrivals.max_requests = 8;
    auto trace_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto t = serve_requests(trace_arch, cfg);
    expect_invariants(t);
    EXPECT_EQ(t.arrived, 8);
}

// ------------------------------------------------------------------- cluster

TEST(Cluster, TwoFabricsConserveAndSplitLoad) {
    const auto cfg = slam_cfg();
    std::vector<core::experiment::BuiltArch> fabrics;
    fabrics.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    fabrics.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    const auto c =
        serve_cluster(std::span(fabrics), cfg, BalancePolicy::kLeastLoaded);
    expect_invariants(c.serve);
    ASSERT_EQ(c.fabric_arrivals.size(), 2u);
    ASSERT_EQ(c.fabric_completed.size(), 2u);
    EXPECT_EQ(c.fabric_arrivals[0] + c.fabric_arrivals[1], c.serve.arrived);
    EXPECT_EQ(c.fabric_completed[0] + c.fabric_completed[1],
              c.serve.completed);
    // Least-loaded actually spreads this stream across both fabrics.
    EXPECT_EQ(c.fabric_arrivals[0], 12);
    EXPECT_EQ(c.fabric_arrivals[1], 13);
    // Scale-out serves the stream faster than one fabric.
    auto solo_arch = core::experiment::build_arch(Arch::kFloret, 6, 6);
    const auto solo = serve_requests(solo_arch, cfg);
    EXPECT_LT(c.serve.makespan_cycles, solo.makespan_cycles);
}

TEST(Cluster, ModelAffinityRoutesOntoWarmFabrics) {
    const auto cfg = slam_cfg();
    std::vector<core::experiment::BuiltArch> fabrics;
    fabrics.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    fabrics.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    const auto c =
        serve_cluster(std::span(fabrics), cfg, BalancePolicy::kModelAffinity);
    expect_invariants(c.serve);
    EXPECT_EQ(c.fabric_arrivals[0], 11);
    EXPECT_EQ(c.fabric_arrivals[1], 14);
    EXPECT_EQ(c.affinity_hits, 18);
    EXPECT_EQ(c.fabric_arrivals[0] + c.fabric_arrivals[1], c.serve.arrived);
}

TEST(Cluster, RepeatedRunsAreIdentical) {
    auto cfg = slam_cfg();
    cfg.admission = AdmissionPolicy::kEdfEvict;
    cfg.max_batch = 4;
    std::vector<core::experiment::BuiltArch> fabrics;
    fabrics.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    fabrics.push_back(core::experiment::build_arch(Arch::kSiamMesh, 6, 6));
    const auto a =
        serve_cluster(std::span(fabrics), cfg, BalancePolicy::kModelAffinity);
    const auto b =
        serve_cluster(std::span(fabrics), cfg, BalancePolicy::kModelAffinity);
    expect_identical(a.serve, b.serve);
    EXPECT_EQ(a.fabric_arrivals, b.fabric_arrivals);
    EXPECT_EQ(a.fabric_completed, b.fabric_completed);
    EXPECT_EQ(a.affinity_hits, b.affinity_hits);
}

TEST(Cluster, RejectsDegenerateInputs) {
    auto cfg = quick_cfg();
    std::vector<core::experiment::BuiltArch> none;
    EXPECT_THROW((void)serve_cluster(std::span(none), cfg,
                                     BalancePolicy::kLeastLoaded),
                 std::invalid_argument);
    cfg.max_batch = 0;
    std::vector<core::experiment::BuiltArch> one;
    one.push_back(core::experiment::build_arch(Arch::kFloret, 6, 6));
    EXPECT_THROW((void)serve_cluster(std::span(one), cfg,
                                     BalancePolicy::kLeastLoaded),
                 std::invalid_argument);
}

TEST(Cluster, PolicyNamesAreStable) {
    EXPECT_STREQ(balance_policy_name(BalancePolicy::kLeastLoaded),
                 "least-loaded");
    EXPECT_STREQ(balance_policy_name(BalancePolicy::kModelAffinity),
                 "model-affinity");
    EXPECT_STREQ(admission_policy_name(AdmissionPolicy::kEdfEvict),
                 "EDF-evict");
}

// -------------------------------------------------------- engine replication

TEST(ServeSweep, BitIdenticalAcrossThreadCounts) {
    ServeSpec spec;
    spec.arch = Arch::kFloret;
    spec.width = 6;
    spec.height = 6;
    spec.config = quick_cfg();
    spec.replications = 4;
    spec.base_seed = 11;

    std::vector<std::vector<ServeStats>> runs;
    for (const std::int32_t threads : {1, 2, 8}) {
        core::SweepEngine engine(threads);
        runs.push_back(run_replications(engine, spec));
    }
    const auto& ref = runs.front();
    ASSERT_EQ(ref.size(), 4u);
    for (const auto& run : runs) {
        ASSERT_EQ(run.size(), ref.size());
        for (std::size_t r = 0; r < ref.size(); ++r)
            expect_identical(run[r], ref[r]);
    }
    // Replications use distinct seeds, so they are genuinely different runs.
    EXPECT_NE(ref[0].makespan_cycles, ref[1].makespan_cycles);
}

TEST(ServeSweep, ReplicationsMatchDirectCalls) {
    ServeSpec spec;
    spec.arch = Arch::kSiamMesh;
    spec.width = 6;
    spec.height = 6;
    spec.config = quick_cfg();
    spec.replications = 2;
    spec.base_seed = 3;
    core::SweepEngine engine(4);
    const auto runs = run_replications(engine, spec);
    ASSERT_EQ(runs.size(), 2u);
    for (std::size_t r = 0; r < runs.size(); ++r) {
        auto arch = core::experiment::build_arch(Arch::kSiamMesh, 6, 6);
        ServeConfig cfg = spec.config;
        cfg.seed = spec.base_seed + r;
        const auto direct = serve_requests(arch, cfg);
        expect_identical(direct, runs[r]);
    }
}

TEST(ServeSweep, AggregateWeighsReplications) {
    ServeStats a;
    a.arrived = 10;
    a.completed = 10;
    a.p95_latency_cycles = 100.0;
    a.throughput_per_mcycle = 50.0;
    a.sim_cycles_stepped = 40;
    a.sim_cycles_skipped = 60;
    a.sim_horizon_jumps = 4;
    ServeStats b;
    b.arrived = 10;
    b.completed = 8;
    b.rejected = 2;
    b.sla_violations = 2;
    b.p95_latency_cycles = 300.0;
    b.throughput_per_mcycle = 30.0;
    b.sim_cycles_stepped = 10;
    b.sim_cycles_skipped = 30;
    b.sim_horizon_jumps = 3;
    const std::vector<ServeStats> runs{a, b};
    const auto agg = aggregate(runs);
    EXPECT_EQ(agg.arrived, 20);
    EXPECT_EQ(agg.completed, 18);
    EXPECT_DOUBLE_EQ(agg.p95_latency_cycles, 200.0);
    EXPECT_DOUBLE_EQ(agg.mean_throughput_per_mcycle, 40.0);
    EXPECT_DOUBLE_EQ(agg.sla_violation_rate(), 0.1);
    EXPECT_EQ(agg.sim_cycles_stepped, 50);
    EXPECT_EQ(agg.sim_cycles_skipped, 90);
    EXPECT_EQ(agg.sim_horizon_jumps, 7);
}

}  // namespace
}  // namespace floretsim::serve
