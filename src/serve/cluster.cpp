#include "src/serve/cluster.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/core/mapper.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/pim/reram.h"
#include "src/util/stats.h"

namespace floretsim::serve {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// round_done sentinel for a resident admitted but not yet scheduled
/// (rounds are deferred to the end of the admission burst; a real
/// round_done is always strictly positive).
constexpr double kUnscheduled = -1.0;

/// One request riding a residency. A batch leader and its coalesced
/// followers are all members of the same Resident; each keeps its own
/// round count and deadline.
struct Member {
    Request req;
    std::int32_t rounds_left = 0;
};

struct Resident {
    std::vector<Member> members;  ///< Leader first, then attach order.
    core::MappedTask task;
    std::string workload_id;
    double admitted_cycle = 0.0;
    double compute_ns = 0.0;
    double round_done = kUnscheduled;

    /// Earliest SLA deadline across live members — the eviction policy's
    /// notion of how deadline-critical this residency is.
    [[nodiscard]] double earliest_deadline() const {
        double d = kInf;
        for (const auto& m : members) d = std::min(d, m.req.deadline_cycle);
        return d;
    }
};

/// Per-fabric scheduler state. Every field the legacy single-fabric loop
/// kept as a local now lives here, once per fabric; the shared virtual
/// clock and the output statistics stay global so a one-fabric cluster
/// accumulates in exactly the legacy order.
struct Fabric {
    core::experiment::BuiltArch* arch = nullptr;
    std::vector<Resident> residents;
    std::vector<Request> queue;  ///< Waiting line, policy-ordered.
    double busy_nodes = 0.0;
    double epoch_drain = 0.0;  ///< Drain of the current residency epoch.
    bool epoch_valid = false;  ///< Cleared on every admit/release/evict.

    [[nodiscard]] std::int64_t live_members() const {
        std::int64_t n = 0;
        for (const auto& r : residents)
            n += static_cast<std::int64_t>(r.members.size());
        return n;
    }
    /// Frontend load signal: queued plus resident requests.
    [[nodiscard]] std::int64_t load() const {
        return static_cast<std::int64_t>(queue.size()) + live_members();
    }
    [[nodiscard]] bool holds_model(const std::string& workload_id) const {
        for (const auto& r : residents)
            if (r.workload_id == workload_id) return true;
        for (const auto& q : queue)
            if (q.workload_id == workload_id) return true;
        return false;
    }
};

}  // namespace

const char* balance_policy_name(BalancePolicy p) {
    switch (p) {
        case BalancePolicy::kLeastLoaded: return "least-loaded";
        case BalancePolicy::kModelAffinity: return "model-affinity";
    }
    return "?";
}

ClusterStats serve_cluster(std::span<core::experiment::BuiltArch> fabrics,
                           const ServeConfig& cfg, BalancePolicy balance) {
    if (fabrics.empty())
        throw std::invalid_argument("serve_cluster: no fabrics");
    if (cfg.max_batch < 1)
        throw std::invalid_argument("serve_cluster: max_batch must be >= 1");
    const auto classes =
        cfg.classes.empty() ? default_request_classes() : cfg.classes;
    const auto requests = generate_requests(cfg.arrivals, classes, cfg.seed);

    // One TaskSpec prototype (network + partition plan) per distinct
    // workload id, in first-appearance order; shared by every fabric.
    std::vector<std::string> distinct;
    for (const auto& r : requests)
        if (std::find(distinct.begin(), distinct.end(), r.workload_id) ==
            distinct.end())
            distinct.push_back(r.workload_id);
    std::vector<std::unique_ptr<dnn::Network>> owner;
    const auto prototypes =
        core::make_tasks(distinct, cfg.params_per_chiplet_m, owner);
    const auto prototype_of = [&](const std::string& id) -> const core::TaskSpec& {
        for (std::size_t i = 0; i < distinct.size(); ++i)
            if (distinct[i] == id) return prototypes[i];
        throw std::logic_error("serve_cluster: unknown workload " + id);
    };
    const pim::ReramConfig reram;

    std::vector<Fabric> cluster(fabrics.size());
    double node_count = 0.0;
    for (std::size_t k = 0; k < fabrics.size(); ++k) {
        cluster[k].arch = &fabrics[k];
        fabrics[k].mapper->reset();
        node_count += static_cast<double>(fabrics[k].topology().node_count());
    }

    ClusterStats cluster_out;
    cluster_out.fabric_arrivals.assign(fabrics.size(), 0);
    cluster_out.fabric_completed.assign(fabrics.size(), 0);
    ServeStats& out = cluster_out.serve;
    out.per_class.resize(classes.size());
    for (std::size_t c = 0; c < classes.size(); ++c)
        out.per_class[c].name = classes[c].name;

    const bool edf_queue = cfg.admission == AdmissionPolicy::kEarliestDeadline ||
                           cfg.admission == AdmissionPolicy::kEdfEvict;
    std::size_t next_arrival = 0;
    double now = 0.0;
    double util_accum = 0.0;   ///< Integral of busy nodes over time.
    double queue_accum = 0.0;  ///< Integral of total queue depth over time.
    double wait_accum = 0.0;
    util::RunningStats latency;
    util::P2Quantile p50(0.50), p95(0.95), p99(0.99);

    const auto reject = [&](const Request& r) {
        ++out.rejected;
        ++out.sla_violations;
        ++out.per_class[static_cast<std::size_t>(r.class_idx)].violations;
    };

    // Round duration = drain latency of the whole resident set plus the
    // batch's PIM compute, both at the same sampling scale. The drain is
    // reused while the residency is unchanged (the epoch short-circuit);
    // otherwise the fabric's NoiMemo supplies it. A round serving m members
    // shares the drain; the compute term grows by batch_traffic_alpha per
    // extra member (m == 1 is the exact pre-batching formula).
    const auto schedule_round = [&](Fabric& f, Resident& r) {
        const obs::Span span("serve_round", "serve");
        ++out.noi_rounds;
        if (!f.epoch_valid) {
            std::vector<const core::MappedTask*> tasks;
            tasks.reserve(f.residents.size());
            for (const auto& res : f.residents) tasks.push_back(&res.task);
            const auto eval = f.arch->fabric->noi_memo.evaluate(tasks, cfg.eval);
            f.epoch_drain = eval.latency_cycles;
            out.sim_cycles_stepped += eval.sim_cycles_stepped;
            out.sim_cycles_skipped += eval.sim_cycles_skipped;
            out.sim_horizon_jumps += eval.sim_horizon_jumps;
            f.epoch_valid = true;
        } else {
            ++out.noi_cache_hits;
        }
        const auto m = static_cast<double>(r.members.size());
        const double round_cycles =
            f.epoch_drain + r.compute_ns * cfg.eval.traffic_scale *
                                (1.0 + cfg.batch_traffic_alpha * (m - 1.0));
        obs::MetricsRegistry::global().observe("serve.round_cycles",
                                               round_cycles);
        r.round_done = now + round_cycles;
    };

    // EDF-ordered insertion (deadline, then id); also the re-queue order
    // for preempted members.
    const auto queue_edf = [](std::vector<Request>& queue, const Request& req) {
        const auto at = std::upper_bound(
            queue.begin(), queue.end(), req,
            [](const Request& a, const Request& b) {
                return std::pair(a.deadline_cycle, a.id) <
                       std::pair(b.deadline_cycle, b.id);
            });
        queue.insert(at, req);
    };

    // kEdfEvict only: tear down the residency whose earliest member
    // deadline is latest, provided it is strictly later than `head`'s —
    // strictness means every eviction edge decreases deadline, so chains
    // terminate. The in-flight round is discarded (that is the preemption)
    // and every member re-queues with its remaining rounds.
    const auto evict_one_for = [&](Fabric& f, const Request& head) {
        std::size_t victim = f.residents.size();
        double latest = head.deadline_cycle;
        for (std::size_t i = 0; i < f.residents.size(); ++i) {
            const double d = f.residents[i].earliest_deadline();
            if (d > latest) {
                latest = d;
                victim = i;
            }
        }
        if (victim == f.residents.size()) return false;
        Resident& r = f.residents[victim];
        f.arch->mapper->release(r.task);
        f.busy_nodes -= static_cast<double>(r.task.nodes.size());
        for (auto& m : r.members) {
            Request back = m.req;
            back.rounds = m.rounds_left;  // the running round is lost
            ++out.preemptions;
            queue_edf(f.queue, back);
        }
        ++out.evictions;
        f.residents.erase(f.residents.begin() +
                          static_cast<std::ptrdiff_t>(victim));
        f.epoch_valid = false;  // residency changed
        return true;
    };

    // Round scheduling is deferred until the admission burst drains: an
    // arrival wave of k mappable requests invalidates the residency epoch k
    // times, so scheduling inside the loop would re-run evaluate_noi per
    // admission and hand the earlier admits round durations computed
    // against stale intermediate resident sets. Admit first, then schedule
    // every new resident against the final set — one NoI evaluation per
    // burst. (Eviction can reorder the resident vector mid-burst, so "new"
    // is tracked by the kUnscheduled sentinel, not by index.)
    const auto try_admit = [&](Fabric& f) {
        while (!f.queue.empty()) {
            const Request head = f.queue.front();
            const core::TaskSpec& spec = prototype_of(head.workload_id);
            const std::span<const core::TaskSpec> one(&spec, 1);
            auto mapped = f.arch->mapper->map_queue(one, nullptr);
            core::MappedTask task = std::move(mapped.front());
            if (!task.mapped) {
                if (!f.residents.empty()) {
                    if (cfg.admission == AdmissionPolicy::kEdfEvict &&
                        evict_one_for(f, head))
                        continue;  // capacity freed: retry the head
                    break;         // wait for departures
                }
                task = f.arch->mapper->map_one_relaxed(spec);
                if (!task.mapped) {
                    // No placement even on an idle system: bounce it so the
                    // line keeps moving.
                    reject(head);
                    f.queue.erase(f.queue.begin());
                    continue;
                }
            }
            f.queue.erase(f.queue.begin());
            ++out.admitted;
            wait_accum += now - head.arrival_cycle;
            Resident r;
            r.workload_id = head.workload_id;
            r.members.push_back({head, head.rounds});
            r.task = std::move(task);
            r.admitted_cycle = now;
            r.compute_ns = core::experiment::task_compute_ns(r.task, reram);
            // Batch coalescing: queued requests for the same model ride the
            // residency the leader just paid for, up to the cap. They jump
            // the line on purpose — that is the batching win.
            for (std::size_t i = 0;
                 i < f.queue.size() &&
                 static_cast<std::int32_t>(r.members.size()) < cfg.max_batch;) {
                if (f.queue[i].workload_id != head.workload_id) {
                    ++i;
                    continue;
                }
                const Request follower = f.queue[i];
                f.queue.erase(f.queue.begin() +
                              static_cast<std::ptrdiff_t>(i));
                ++out.admitted;
                ++out.batched_requests;
                wait_accum += now - follower.arrival_cycle;
                r.members.push_back({follower, follower.rounds});
            }
            f.busy_nodes += static_cast<double>(r.task.nodes.size());
            f.residents.push_back(std::move(r));
            f.epoch_valid = false;  // residency changed
        }
        for (auto& r : f.residents)
            if (r.round_done == kUnscheduled) schedule_round(f, r);
    };

    const auto advance_to = [&](double t) {
        double busy = 0.0;
        double queued = 0.0;
        for (const auto& f : cluster) {
            busy += f.busy_nodes;
            queued += static_cast<double>(f.queue.size());
        }
        util_accum += busy * (t - now);
        queue_accum += queued * (t - now);
        now = t;
    };

    // Frontend routing, decided once per arrival. Load = queued + resident
    // members; affinity prefers fabrics already holding the model (warm
    // residency), falling back to least-loaded. Ties go to the lowest
    // fabric index, which keeps the whole cluster deterministic.
    const auto route = [&](const Request& req) {
        std::size_t best = 0;
        if (balance == BalancePolicy::kModelAffinity) {
            std::size_t warm = cluster.size();
            for (std::size_t k = 0; k < cluster.size(); ++k) {
                if (!cluster[k].holds_model(req.workload_id)) continue;
                if (warm == cluster.size() ||
                    cluster[k].load() < cluster[warm].load())
                    warm = k;
            }
            if (warm != cluster.size()) {
                ++cluster_out.affinity_hits;
                return warm;
            }
        }
        for (std::size_t k = 1; k < cluster.size(); ++k)
            if (cluster[k].load() < cluster[best].load()) best = k;
        if (balance != BalancePolicy::kModelAffinity &&
            cluster[best].holds_model(req.workload_id))
            ++cluster_out.affinity_hits;
        return best;
    };

    const auto any_pending = [&] {
        for (const auto& f : cluster)
            if (!f.residents.empty() || !f.queue.empty()) return true;
        return false;
    };

    // Event-count guard: every request contributes one arrival plus at most
    // max_rounds round completions; anything past that is a logic bug.
    // Eviction re-queues work, so kEdfEvict gets the worst-case re-run
    // budget on top (each request evictable at most once per
    // earlier-deadline head).
    std::int64_t max_events =
        16 + static_cast<std::int64_t>(requests.size()) *
                 (static_cast<std::int64_t>(cfg.arrivals.max_rounds) + 4);
    if (cfg.admission == AdmissionPolicy::kEdfEvict)
        max_events += static_cast<std::int64_t>(requests.size()) *
                      static_cast<std::int64_t>(requests.size()) *
                      (static_cast<std::int64_t>(cfg.arrivals.max_rounds) + 4);
    std::int64_t events = 0;

    while (next_arrival < requests.size() || any_pending()) {
        if (++events > max_events) {
            out.drained = false;
            break;
        }

        // Earliest round completion (ties: lowest fabric, then lowest
        // resident index).
        std::size_t round_fab = cluster.size();
        std::size_t round_idx = 0;
        double round_at = kInf;
        for (std::size_t k = 0; k < cluster.size(); ++k)
            for (std::size_t i = 0; i < cluster[k].residents.size(); ++i)
                if (cluster[k].residents[i].round_done < round_at) {
                    round_at = cluster[k].residents[i].round_done;
                    round_fab = k;
                    round_idx = i;
                }
        const double arrival_at = next_arrival < requests.size()
                                      ? requests[next_arrival].arrival_cycle
                                      : kInf;

        if (round_at == kInf && arrival_at == kInf) {
            // Arrivals exhausted, nothing resident, queues non-empty: the
            // idle-system admission path always shrinks each queue.
            for (auto& f : cluster)
                if (!f.queue.empty()) try_admit(f);
            continue;
        }

        // Completions before arrivals at the same instant, so an arriving
        // request sees the capacity freed "now".
        if (round_at <= arrival_at) {
            advance_to(round_at);
            Fabric& f = cluster[round_fab];
            Resident& r = f.residents[round_idx];
            // Every live member consumed this round; those out of rounds
            // complete here, in attach order.
            bool finished_any = false;
            for (auto it = r.members.begin(); it != r.members.end();) {
                if (--it->rounds_left > 0) {
                    ++it;
                    continue;
                }
                const Request req = it->req;
                const double sojourn = now - req.arrival_cycle;
                latency.add(sojourn);
                p50.add(sojourn);
                p95.add(sojourn);
                p99.add(sojourn);
                ++out.completed;
                ++cluster_out.fabric_completed[round_fab];
                auto& cls =
                    out.per_class[static_cast<std::size_t>(req.class_idx)];
                ++cls.completed;
                if (now > req.deadline_cycle) {
                    ++out.sla_violations;
                    ++cls.violations;
                }
                it = r.members.erase(it);
                finished_any = true;
            }
            if (!r.members.empty()) {
                // Batch not drained: next round under the unchanged
                // residency (an epoch reuse), with m reduced.
                if (finished_any) out.makespan_cycles = now;
                schedule_round(f, r);
                continue;
            }
            f.arch->mapper->release(r.task);
            f.busy_nodes -= static_cast<double>(r.task.nodes.size());
            f.residents.erase(f.residents.begin() +
                              static_cast<std::ptrdiff_t>(round_idx));
            f.epoch_valid = false;  // residency changed
            out.makespan_cycles = now;
            try_admit(f);
        } else {
            advance_to(arrival_at);
            const Request& req = requests[next_arrival++];
            ++out.arrived;
            ++out.per_class[static_cast<std::size_t>(req.class_idx)].arrived;
            Fabric& f = cluster[route(req)];
            ++cluster_out.fabric_arrivals[static_cast<std::size_t>(
                &f - cluster.data())];
            if (cfg.admission == AdmissionPolicy::kRejectOnFull &&
                f.queue.size() >= cfg.max_queue) {
                reject(req);
            } else if (edf_queue) {
                queue_edf(f.queue, req);
            } else {
                f.queue.push_back(req);
            }
            out.peak_queue_depth =
                std::max(out.peak_queue_depth,
                         static_cast<std::int64_t>(f.queue.size()));
            try_admit(f);
        }
    }

    // Conservation over a drained run, checked in every build type: each
    // arrival completes or bounces, each admission completes or is
    // preempted back into a queue, and each eviction preempts at least one
    // member.
    if (out.drained && (out.arrived != out.completed + out.rejected ||
                        out.admitted != out.completed + out.preemptions ||
                        out.preemptions < out.evictions))
        throw std::logic_error(
            "serve_cluster: conservation violated: arrived " +
            std::to_string(out.arrived) + ", admitted " +
            std::to_string(out.admitted) + ", completed " +
            std::to_string(out.completed) + ", rejected " +
            std::to_string(out.rejected) + ", preemptions " +
            std::to_string(out.preemptions) + ", evictions " +
            std::to_string(out.evictions));

    out.makespan_cycles = std::max(out.makespan_cycles, now);
    if (now > 0.0) {
        out.mean_utilization = util_accum / (now * node_count);
        out.mean_queue_depth = queue_accum / now;
    }
    if (out.makespan_cycles > 0.0)
        out.throughput_per_mcycle =
            static_cast<double>(out.completed) / out.makespan_cycles * 1e6;
    if (out.admitted > 0)
        out.mean_wait_cycles = wait_accum / static_cast<double>(out.admitted);
    out.mean_latency_cycles = latency.mean();
    out.p50_latency_cycles = p50.value();
    out.p95_latency_cycles = p95.value();
    out.p99_latency_cycles = p99.value();
    auto& metrics = obs::MetricsRegistry::global();
    if (metrics.enabled()) {
        metrics.add("serve.arrived", out.arrived);
        metrics.add("serve.admitted", out.admitted);
        metrics.add("serve.rejected", out.rejected);
        metrics.add("serve.completed", out.completed);
        metrics.add("serve.sla_violations", out.sla_violations);
        metrics.add("serve.preemptions", out.preemptions);
        metrics.add("serve.evictions", out.evictions);
        metrics.add("serve.batched_requests", out.batched_requests);
        metrics.add("serve.noi_rounds", out.noi_rounds);
        metrics.add("serve.noi_cache_hits", out.noi_cache_hits);
    }
    return cluster_out;
}

}  // namespace floretsim::serve
