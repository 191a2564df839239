#include "src/core/experiment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/cost/models.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/topo/kite.h"
#include "src/topo/mesh.h"
#include "src/topo/swap.h"
#include "src/util/hash.h"

namespace floretsim::core::experiment {

const char* arch_name(Arch a) {
    switch (a) {
        case Arch::kKite: return "Kite";
        case Arch::kSiamMesh: return "SIAM";
        case Arch::kSwap: return "SWAP";
        case Arch::kFloret: return "Floret";
    }
    return "?";
}

std::int32_t default_lambda(std::int32_t w, std::int32_t h) {
    const std::int32_t n = w * h;
    std::int32_t best = 1;
    for (std::int32_t l = 1; l <= n; ++l) {
        bool tiles = false;
        for (std::int32_t a = 1; a <= l; ++a)
            if (l % a == 0 && a <= w && l / a <= h) tiles = true;
        if (!tiles) continue;
        if (std::abs(n / l - 10) < std::abs(n / best - 10)) best = l;
    }
    return best;
}

std::shared_ptr<const ArchFabric> build_fabric(Arch a, std::int32_t w, std::int32_t h,
                                               std::uint64_t swap_seed) {
    auto f = std::make_shared<ArchFabric>();
    f->arch = a;
    f->width = w;
    f->height = h;
    f->swap_seed = swap_seed;
    switch (a) {
        case Arch::kKite:
            f->topology = topo::make_kite(w, h);
            break;
        case Arch::kSiamMesh:
            f->topology = topo::make_mesh(w, h);
            break;
        case Arch::kSwap: {
            util::Rng rng(swap_seed);
            f->topology = topo::make_swap(w, h, rng);
            break;
        }
        case Arch::kFloret:
            f->sfc = generate_sfc_set(w, h, default_lambda(w, h));
            f->topology = make_floret(f->sfc);
            break;
    }
    f->routes = noc::RouteTable::build(f->topology, noc::RoutingPolicy::kUpDown);
    return f;
}

std::size_t ArchCache::KeyHash::operator()(const Key& key) const noexcept {
    const auto& [arch, w, h, swap_seed] = key;
    std::uint64_t v = swap_seed;
    for (const std::int32_t part : {arch, w, h})
        v = (v ^ static_cast<std::uint32_t>(part)) * util::kFnvPrime;
    return static_cast<std::size_t>(v);
}

std::shared_ptr<const ArchFabric> ArchCache::get(Arch a, std::int32_t w,
                                                 std::int32_t h,
                                                 std::uint64_t swap_seed) {
    return fabrics_.get(
        Key{static_cast<std::int32_t>(a), w, h, swap_seed},
        [&] {
            const obs::Span span("build_fabric", "fabric");
            return build_fabric(a, w, h, swap_seed);
        },
        [](util::Lookup lookup) {
            obs::MetricsRegistry::global().add(lookup == util::Lookup::kHit
                                                   ? "arch_cache.hits"
                                                   : "arch_cache.misses");
        });
}

BuiltArch make_built_arch(std::shared_ptr<const ArchFabric> fabric,
                          std::int32_t greedy_max_gap) {
    BuiltArch b;
    b.arch = fabric->arch;
    if (fabric->arch == Arch::kFloret)
        b.mapper = std::make_unique<FloretMapper>(fabric->sfc);
    else
        b.mapper = std::make_unique<GreedyMapper>(fabric->topology, fabric->routes,
                                                  greedy_max_gap);
    b.fabric = std::move(fabric);
    return b;
}

BuiltArch build_arch(Arch a, std::int32_t w, std::int32_t h, std::uint64_t swap_seed,
                     std::int32_t greedy_max_gap) {
    return make_built_arch(build_fabric(a, w, h, swap_seed), greedy_max_gap);
}

BuiltArch build_arch(ArchCache& cache, Arch a, std::int32_t w, std::int32_t h,
                     std::uint64_t swap_seed, std::int32_t greedy_max_gap) {
    return make_built_arch(cache.get(a, w, h, swap_seed), greedy_max_gap);
}

EvalConfig default_eval_config() {
    EvalConfig cfg;
    cfg.traffic_scale = 1.0 / 64.0;
    cfg.sim.injection_rate = 8.0;
    cfg.sim.max_cycles = 20'000'000;
    return cfg;
}

double task_compute_ns(const MappedTask& t, const pim::ReramConfig& rc) {
    double ns = 0.0;
    for (const auto& seg : t.plan.segments)
        ns += pim::layer_compute_latency_ns(t.net->layer(seg.layer_id), seg.chiplets(),
                                            rc);
    return ns;
}

DynamicResult run_mix_dynamic(BuiltArch& arch, const workload::ConcurrentMix& mix,
                              const EvalConfig& cfg, std::uint64_t seed) {
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const auto queue_ids = workload::expand_mix(mix);
    auto tasks = make_tasks(queue_ids, kParamsPerChipletM, owner);
    const pim::ReramConfig reram;

    // Deterministic residency in rounds per queue position (1..3).
    util::Rng rng(seed);
    std::vector<std::int32_t> duration(tasks.size());
    for (auto& d : duration) d = 1 + static_cast<std::int32_t>(rng.below(3));

    arch.mapper->reset();
    std::size_t next = 0;  // queue cursor
    struct Resident {
        MappedTask task;
        std::int32_t rounds_left;
        double compute_ns;
    };
    std::vector<Resident> resident;

    // Residency epoch: successive rounds with an unchanged resident set
    // would re-run an identical, deterministic NoI evaluation, so the
    // previous round's result (and the residents' compute maximum) is
    // reused verbatim. Set dirty on every admit/retire.
    bool residency_dirty = true;
    EvalResult round_eval;
    double round_compute_ns = 0.0;

    DynamicResult out;
    while ((next < tasks.size() || !resident.empty()) && out.rounds < 1000) {
        // Admit head-of-line tasks while they map (strict queue order —
        // the paper's deadlock-free sequential discipline).
        while (next < tasks.size()) {
            const std::span<const TaskSpec> one(&tasks[next], 1);
            auto mapped = arch.mapper->map_queue(one, nullptr);
            if (!mapped.front().mapped) {
                if (!resident.empty()) break;  // wait for departures
                // Idle system and the head still fails (placement budget
                // cornered): relax constraints — progress must be possible.
                mapped.front() = arch.mapper->map_one_relaxed(tasks[next]);
                if (!mapped.front().mapped) {
                    out.all_completed = false;  // task larger than the system
                    ++next;
                    continue;
                }
            }
            resident.push_back(
                Resident{std::move(mapped.front()), duration[next], 0.0});
            resident.back().compute_ns = task_compute_ns(resident.back().task, reram);
            residency_dirty = true;
            ++next;
        }
        if (resident.empty()) break;

        // One inference round of every resident task: compute in parallel
        // on their own chiplets, activations drain over the shared NoI.
        if (residency_dirty) {
            std::vector<const MappedTask*> tasks;
            tasks.reserve(resident.size());
            round_compute_ns = 0.0;
            for (const auto& r : resident) {
                tasks.push_back(&r.task);
                round_compute_ns = std::max(round_compute_ns, r.compute_ns);
            }
            round_eval = arch.fabric->noi_memo.evaluate(tasks, cfg);
            out.sim_cycles_stepped += round_eval.sim_cycles_stepped;
            out.sim_cycles_skipped += round_eval.sim_cycles_skipped;
            out.sim_horizon_jumps += round_eval.sim_horizon_jumps;
            ++out.noi_evals;
            residency_dirty = false;
        } else {
            ++out.round_epoch_hits;
        }
        // 1 GHz NoC clock: 1 cycle == 1 ns of compute time; compute and
        // traffic carry the same sampling scale so their balance is
        // unbiased.
        const double round_cycles =
            round_eval.latency_cycles + round_compute_ns * cfg.traffic_scale;
        out.total_cycles += round_cycles;
        out.total_energy_pj +=
            round_eval.energy_pj +
            cost::noi_leakage_mw(arch.topology(), cfg.cost) * round_cycles;
        out.flit_hops += round_eval.flit_hops;
        out.task_rounds += static_cast<std::int64_t>(resident.size());
        out.all_completed = out.all_completed && round_eval.completed;
        ++out.rounds;

        // Retire finished tasks, freeing their chiplets.
        for (std::size_t i = 0; i < resident.size();) {
            if (--resident[i].rounds_left <= 0) {
                arch.mapper->release(resident[i].task);
                resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(i));
                residency_dirty = true;
            } else {
                ++i;
            }
        }
    }
    // Memo lookups vs rounds reused from the residency epoch — the reuse
    // ratio is the round-level win per mix. A lookup the fabric's NoiMemo
    // serves runs no simulation.
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.add("noi.sims_run", out.noi_evals);
        metrics.add("noi.sims_reused", out.round_epoch_hits);
        metrics.add("mix.runs");
        metrics.add("mix.rounds", out.rounds);
    }
    return out;
}

}  // namespace floretsim::core::experiment
