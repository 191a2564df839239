#include "src/noc/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace floretsim::noc {
namespace {

using topo::LinkId;
using topo::NodeId;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

struct Packet {
    std::int32_t id = -1;
    NodeId src = -1;
    NodeId dst = -1;
    std::int32_t flits = 0;
    std::int64_t inject_cycle = 0;
    const std::vector<NodeId>* path = nullptr;
};

struct Flit {
    std::int32_t packet = -1;
    std::int32_t hop = 0;  ///< Index into the packet path of the current node.
    bool head = false;
    bool tail = false;
};

/// One directed channel (half of a bidirectional link) with its pipeline
/// and the input FIFO at its downstream router.
struct Channel {
    NodeId from = -1;
    NodeId to = -1;
    LinkId link = -1;
    std::int32_t delay = 1;
    std::int32_t credits = 0;                        ///< Space left downstream.
    std::deque<std::pair<Flit, std::int64_t>> pipe;  ///< (flit, arrival cycle).
    std::deque<Flit> fifo;                           ///< Downstream input buffer.
};

/// One locality unit of the regional core: a set of routers, the channels
/// whose FIFOs they host (in_ch), the channels they allocate (out_ch), and
/// an independent local clock. The reference core runs as one region
/// spanning the fabric, which makes the merged phase loops below
/// degenerate to the whole-network iteration order.
struct Region {
    std::vector<std::int32_t> nodes;   ///< Member routers, ascending.
    std::vector<std::int32_t> in_ch;   ///< Channels with `to` here, ascending.
    std::vector<std::int32_t> out_ch;  ///< Channels with `from` here, ascending.
    std::int64_t next = 0;     ///< Earliest cycle this region must execute.
    std::int64_t stepped = 0;  ///< Cycles this region participated in.
    std::int64_t jumps = 0;    ///< Sleep transitions skipping >= 1 cycle.
};

/// Head-flit request table entries: what a source FIFO's head flit asks of
/// the switch this cycle. Non-negative values are output channel indices.
constexpr std::int32_t kRequestNone = -2;   ///< Source FIFO is empty.
constexpr std::int32_t kRequestEject = -1;  ///< Head flit is at its destination.

/// Process-wide core override, parsed once: lets CI, the --core CLI flags
/// (which set the variable before first use) and ad-hoc debugging force
/// every simulation onto one engine without touching configs. An unknown
/// name throws (and keeps throwing: a static whose initializer exits by
/// exception is retried on the next call), so a typo can never silently
/// run the default core.
std::optional<SimCore> core_env_override() {
    static const std::optional<SimCore> parsed = []() -> std::optional<SimCore> {
        const char* s = std::getenv("FLORETSIM_SIM_CORE");
        if (s == nullptr || *s == '\0') return std::nullopt;
        if (const auto core = sim_core_from_name(s)) return core;
        throw std::invalid_argument(std::string("unknown FLORETSIM_SIM_CORE='") + s +
                                    "' (expected 'reference' or 'regional')");
    }();
    return parsed;
}

/// One simulation run, structured around regions with independent local
/// clocks (`Region::next` = the earliest cycle the region must execute).
/// Per global cycle the engine runs the reference phases — inject, deliver,
/// eject, allocate — but only over *awake* regions (next <= now); when no
/// region is due, the global clock jumps to the earliest regional wake-up.
///
/// Bit-identicality with the reference loop rests on two ordering rules and
/// one fixed-point theorem:
///
///   - Ejection and allocation iterate the awake regions' channel lists
///     merged in ascending global channel index — the reference core's
///     exact order. Ejection order fixes the floating-point accumulation
///     order of packet_latency; allocation order fixes the same-cycle
///     credit/drain coupling between channels of one cycle.
///
///   - The PR-3 fixed point, localized: a cycle in which a region ejected
///     nothing, allocated nothing, and received no credit from another
///     region leaves its credits, locks, round-robin pointers and FIFOs
///     unchanged — all of them mutate only through the region's own
///     ejection/allocation or a cross-region credit return. Its next
///     possible change is its earliest local pipe arrival or injection, so
///     its clock jumps there. verify_quiet() cross-checks the local proof
///     in debug builds: every waiting head flit in the region must be
///     blocked on a zero-credit output or a foreign wormhole lock.
///
///   - Cross-region events wake sleepers exactly when the reference core
///     would let them act. A flit allocated onto a cut channel bounds the
///     destination region's clock by its arrival cycle (lookahead = the
///     channel delay >= 1). A credit returned to a sleeping region's
///     output channel has *zero* lookahead — the reference allocator could
///     use it later in the same cycle — so the owner is woken within the
///     cycle for the allocation phase only: a credit returned by ejection
///     enters the merged scan from its first channel (ejection precedes
///     all allocation), and a credit returned by a drain mid-scan enters
///     just past the draining channel's index — precisely the set of
///     outputs the reference core would still visit with that credit
///     available. A credit-touched region never proves quietness that
///     cycle (the stale request table cannot see what the credit unblocks);
///     it stays awake one more cycle instead — conservative, never wrong.
class Engine {
public:
    Engine(const topo::Topology& topo, const RouteTable& routes, const SimConfig& cfg,
           const std::vector<Demand>& demands)
        : cfg_(cfg),
          horizon_(cfg.core != SimCore::kReference),
          n_nodes_(static_cast<std::size_t>(topo.node_count())) {
        // --- Directed channels: 2 per link, indexed from both endpoints.
        channels_.reserve(topo.links().size() * 2);
        in_channels_.resize(n_nodes_);
        out_channels_.resize(n_nodes_);
        for (const auto& l : topo.links()) {
            const auto delay = std::max<std::int32_t>(
                1, static_cast<std::int32_t>(std::lround(l.length_mm / cfg_.mm_per_cycle))) +
                               cfg_.router_delay_cycles;
            for (const auto& [from, to] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
                Channel c;
                c.from = from;
                c.to = to;
                c.link = l.id;
                c.delay = delay;
                c.credits = cfg_.input_buffer_flits;
                const auto idx = static_cast<std::int32_t>(channels_.size());
                channels_.push_back(std::move(c));
                in_channels_[static_cast<std::size_t>(to)].push_back(idx);
                out_channels_[static_cast<std::size_t>(from)].push_back(idx);
            }
        }

        // --- Packetize demands and build per-node injection schedules.
        for (const auto& d : demands) {
            const auto total_flits = std::max<std::int64_t>(
                1, (d.bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes);
            std::int64_t remaining = total_flits;
            while (remaining > 0) {
                const auto take = static_cast<std::int32_t>(
                    std::min<std::int64_t>(remaining, cfg_.max_packet_flits));
                Packet p;
                p.id = static_cast<std::int32_t>(packets_.size());
                p.src = d.src;
                p.dst = d.dst;
                p.flits = take;
                p.path = &routes.route(d.src, d.dst);
                if (p.path->size() < 2)
                    throw std::logic_error("no route for demand " + std::to_string(d.src) +
                                           "->" + std::to_string(d.dst));
                packets_.push_back(p);
                remaining -= take;
            }
        }

        // Round-robin interleave packets of each source across the
        // injection window implied by the configured injection rate.
        per_src_.resize(n_nodes_);
        for (const auto& p : packets_)
            per_src_[static_cast<std::size_t>(p.src)].push_back(p.id);
        for (std::size_t n = 0; n < n_nodes_; ++n) {
            const double rate = std::max(1e-9, cfg_.injection_rate);
            double cursor = 0.0;
            for (const auto pid : per_src_[n]) {
                auto& p = packets_[static_cast<std::size_t>(pid)];
                p.inject_cycle = static_cast<std::int64_t>(cursor);
                cursor += static_cast<double>(p.flits) / rate;
            }
            std::sort(per_src_[n].begin(), per_src_[n].end(),
                      [&](std::int32_t a, std::int32_t b) {
                          return packets_[static_cast<std::size_t>(a)].inject_cycle <
                                 packets_[static_cast<std::size_t>(b)].inject_cycle;
                      });
        }
        inj_cursor_.assign(n_nodes_, 0);
        inj_fifo_.resize(n_nodes_);

        // --- Arbiter and scratch state.
        lock_.assign(channels_.size(), -1);
        rr_.assign(channels_.size(), 0);
        inj_request_.assign(n_nodes_, kRequestNone);
        ch_request_.assign(channels_.size(), kRequestNone);
        channel_drained_.assign(channels_.size(), 0);
        inj_drained_.assign(n_nodes_, 0);

        // --- Regions: the regional core partitions via topo::make_region_map;
        // the reference core uses one region spanning the fabric, which
        // reproduces the whole-network iteration order and accounting.
        std::vector<std::int32_t> node_region(n_nodes_, 0);
        std::int32_t n_regions = 1;
        if (horizon_ && n_nodes_ > 0) {
            const auto rm = topo::make_region_map(topo);
            if (rm.count > 0) {
                node_region = rm.region_of;
                n_regions = rm.count;
            }
        }
        regions_.resize(static_cast<std::size_t>(n_regions));
        for (std::size_t n = 0; n < n_nodes_; ++n)
            regions_[static_cast<std::size_t>(node_region[n])].nodes.push_back(
                static_cast<std::int32_t>(n));
        ch_from_region_.resize(channels_.size());
        ch_to_region_.resize(channels_.size());
        for (std::size_t ci = 0; ci < channels_.size(); ++ci) {
            const auto fr = node_region[static_cast<std::size_t>(channels_[ci].from)];
            const auto tr = node_region[static_cast<std::size_t>(channels_[ci].to)];
            ch_from_region_[ci] = fr;
            ch_to_region_[ci] = tr;
            regions_[static_cast<std::size_t>(fr)].out_ch.push_back(
                static_cast<std::int32_t>(ci));
            regions_[static_cast<std::size_t>(tr)].in_ch.push_back(
                static_cast<std::int32_t>(ci));
        }
        for (auto& r : regions_) r.next = region_next_injection(r);
        cursor_.assign(regions_.size(), 0);
        is_awake_.assign(regions_.size(), 0);
        in_alloc_.assign(regions_.size(), 0);
        region_active_.assign(regions_.size(), 0);
        credit_touched_.assign(regions_.size(), 0);
        awake_.reserve(regions_.size());
        alloc_extra_.reserve(regions_.size());

        res_.router_flits.assign(n_nodes_, 0);
        res_.link_flits.assign(topo.links().size(), 0);
        total_packets_ = static_cast<std::int64_t>(packets_.size());
    }

    SimResult run() {
        std::int64_t now = 0;
        while (delivered_packets_ < total_packets_ && now < cfg_.max_cycles) {
            awake_.clear();
            std::int64_t soonest = kNever;
            for (std::size_t r = 0; r < regions_.size(); ++r) {
                if (regions_[r].next <= now) {
                    is_awake_[r] = 1;
                    awake_.push_back(static_cast<std::int32_t>(r));
                } else {
                    soonest = std::min(soonest, regions_[r].next);
                }
            }
            if (awake_.empty()) {
                // Every region holds a proven fixed point past `now`: jump
                // the global clock to the earliest regional wake-up,
                // clamped to max_cycles so a capped run reports the same
                // cycle count as stepping to the cap would (soonest may be
                // kNever when every in-flight flit is wedged: the jump
                // then burns the remaining budget exactly like the
                // reference loop does).
                if (in_flight_flits_ == 0 && soonest == kNever)
                    break;  // nothing left anywhere
                const std::int64_t target = std::min(soonest, cfg_.max_cycles);
                res_.cycles_skipped += target - now;
                ++res_.horizon_jumps;
                now = target;
                continue;
            }
            step_awake(now);
            ++now;
            ++res_.cycles_stepped;
        }
        res_.cycles = now;
        res_.packets = delivered_packets_;
        res_.completed = delivered_packets_ == total_packets_;
        res_.regions = static_cast<std::int64_t>(regions_.size());
        res_.region_stepped_min = kNever;
        for (const auto& r : regions_) {
            res_.region_cycles_stepped += r.stepped;
            res_.region_cycles_skipped += res_.cycles - r.stepped;
            res_.region_horizon_jumps += r.jumps;
            res_.region_stepped_max = std::max(res_.region_stepped_max, r.stepped);
            res_.region_stepped_min = std::min(res_.region_stepped_min, r.stepped);
        }
        flush_metrics();
        return std::move(res_);
    }

private:
    /// One end-of-run flush into the process metrics registry: every
    /// value is a deterministic work quantity out of res_ (never wall
    /// clock), so snapshots stay bit-identical across thread counts. The
    /// per-phase flit counters split a run's movement into its three
    /// engine phases — inject (flits entering source FIFOs), allocate
    /// (hops won through switch allocation), eject (flits leaving the
    /// fabric) — and the region counters expose how much of the fabric
    /// the kRegional core actually stepped vs slept.
    void flush_metrics() const {
        auto& m = obs::MetricsRegistry::global();
        if (!m.enabled()) return;
        m.add("sim.runs");
        m.add("sim.cycles", res_.cycles);
        m.add("sim.cycles_stepped", res_.cycles_stepped);
        m.add("sim.cycles_skipped", res_.cycles_skipped);
        m.add("sim.horizon_jumps", res_.horizon_jumps);
        m.add("sim.phase_inject_flits", injected_flits_);
        m.add("sim.phase_alloc_hops", res_.flit_hops);
        m.add("sim.phase_eject_flits", res_.flits);
        m.add("sim.region_cycles_stepped", res_.region_cycles_stepped);
        m.add("sim.region_cycles_skipped", res_.region_cycles_skipped);
        m.add("sim.region_horizon_jumps", res_.region_horizon_jumps);
        m.observe("sim.run_cycles", static_cast<double>(res_.cycles));
    }

    /// One cycle of the reference semantics over the awake regions.
    void step_awake(const std::int64_t now) {
        // 1. Injection: move due packets into their source FIFOs as flits.
        // A sleeping region never has a due injection: its horizon is
        // bounded by the earliest pending one.
        for (const auto r : awake_)
            for (const auto node : regions_[static_cast<std::size_t>(r)].nodes)
                inject_node(static_cast<std::size_t>(node), now);

        // 2. Link pipelines: deliver arrived flits into downstream FIFOs.
        // A sleeping region never has a due arrival: the allocation that
        // launched the flit bounded this region's clock by its arrival.
        for (const auto r : awake_)
            for (const auto ci : regions_[static_cast<std::size_t>(r)].in_ch) {
                Channel& c = channels_[static_cast<std::size_t>(ci)];
                while (!c.pipe.empty() && c.pipe.front().second <= now) {
                    c.fifo.push_back(c.pipe.front().first);
                    c.pipe.pop_front();
                }
            }

        // 3. Ejection, merged in ascending global channel index across the
        // awake regions (one flit per input port per cycle). A sleeping
        // region holds no ejectable head — its quiet proof rules that out
        // and its FIFOs have not changed since — so skipping it drops no
        // ejection and no latency sample.
        eject_awake(now);

        // 4. Switch allocation over the head-flit request table. Requests
        // are refreshed only for awake regions; a sleeping region's table
        // is still valid because its FIFOs cannot have changed since its
        // last participation (any drain would have kept it awake).
        for (const auto r : awake_) refresh_requests(static_cast<std::size_t>(r));
        allocate_awake(now);

        finish_cycle(now);
    }

    void inject_node(const std::size_t n, const std::int64_t now) {
        while (inj_cursor_[n] < per_src_[n].size()) {
            const auto pid = per_src_[n][inj_cursor_[n]];
            const auto& p = packets_[static_cast<std::size_t>(pid)];
            if (p.inject_cycle > now) break;
            for (std::int32_t f = 0; f < p.flits; ++f) {
                Flit fl;
                fl.packet = pid;
                fl.hop = 0;
                fl.head = (f == 0);
                fl.tail = (f == p.flits - 1);
                inj_fifo_[n].push_back(fl);
                ++in_flight_flits_;
                ++injected_flits_;
            }
            ++inj_cursor_[n];
        }
    }

    void eject_awake(const std::int64_t now) {
        for (const auto r : awake_) cursor_[static_cast<std::size_t>(r)] = 0;
        for (;;) {
            std::int32_t best_r = -1;
            std::int32_t best_ci = std::numeric_limits<std::int32_t>::max();
            for (const auto r : awake_) {
                const auto& in = regions_[static_cast<std::size_t>(r)].in_ch;
                const auto cur = cursor_[static_cast<std::size_t>(r)];
                if (cur < in.size() && in[cur] < best_ci) {
                    best_ci = in[cur];
                    best_r = r;
                }
            }
            if (best_r < 0) break;
            ++cursor_[static_cast<std::size_t>(best_r)];
            try_eject(static_cast<std::size_t>(best_ci), best_r, now);
        }
    }

    /// Ejects the front flit of channel `ci` if it sits at its destination,
    /// returning credit upstream (possibly across a region cut).
    void try_eject(const std::size_t ci, const std::int32_t region,
                   const std::int64_t now) {
        Channel& c = channels_[ci];
        if (c.fifo.empty()) return;
        const Flit& f = c.fifo.front();
        const auto& p = packets_[static_cast<std::size_t>(f.packet)];
        if ((*p.path)[static_cast<std::size_t>(f.hop)] != p.dst) return;
        if (f.tail) {
            ++delivered_packets_;
            res_.packet_latency.add(static_cast<double>(now - p.inject_cycle));
        }
        ++res_.flits;
        --in_flight_flits_;
        c.fifo.pop_front();
        ++c.credits;
        region_active_[static_cast<std::size_t>(region)] = 1;
        // The freed slot is a credit for whoever allocates onto this
        // channel: its upstream region. Ejection precedes all allocation,
        // so a woken sleeper enters the merged scan from its first channel.
        wake_for_credit(ch_from_region_[ci], -1);
    }

    /// Marks `r` credit-touched and, if it is sleeping through this cycle,
    /// enrolls it in the allocation phase starting just past channel
    /// `after_ci` (-1 = from the beginning).
    void wake_for_credit(const std::int32_t r, const std::int32_t after_ci) {
        const auto ri = static_cast<std::size_t>(r);
        credit_touched_[ri] = 1;
        if (is_awake_[ri] || in_alloc_[ri]) return;
        in_alloc_[ri] = 1;
        const auto& oc = regions_[ri].out_ch;
        cursor_[ri] =
            after_ci < 0
                ? 0
                : static_cast<std::size_t>(
                      std::upper_bound(oc.begin(), oc.end(), after_ci) - oc.begin());
        alloc_extra_.push_back(r);
    }

    /// Rebuilds the head-flit request table for one region's FIFO fronts.
    /// Entries of sources drained later in the same cycle go stale, but the
    /// allocator's one-flit-per-input-per-cycle guard keeps them unread.
    void refresh_requests(const std::size_t r) {
        for (const auto node : regions_[r].nodes) {
            const auto n = static_cast<std::size_t>(node);
            inj_request_[n] = request_of(inj_fifo_[n]);
        }
        for (const auto ci : regions_[r].in_ch) {
            const auto c = static_cast<std::size_t>(ci);
            ch_request_[c] = request_of(channels_[c].fifo);
        }
    }

    [[nodiscard]] std::int32_t request_of(const std::deque<Flit>& fifo) const {
        if (fifo.empty()) return kRequestNone;
        const Flit& f = fifo.front();
        const auto& p = packets_[static_cast<std::size_t>(f.packet)];
        const auto& path = *p.path;
        const auto pos = static_cast<std::size_t>(f.hop);
        if (path[pos] == p.dst) return kRequestEject;
        const NodeId next = path[pos + 1];
        for (const auto ci : out_channels_[static_cast<std::size_t>(path[pos])])
            if (channels_[static_cast<std::size_t>(ci)].to == next) return ci;
        assert(false && "route step without a matching channel");
        return kRequestNone;
    }

    /// Allocation over the participating regions' output channels, merged
    /// in ascending global channel index. Participants are the awake
    /// regions plus any sleeper woken by a same-cycle credit return;
    /// alloc_extra_ may grow while the scan runs (a drain can return
    /// credit across a cut), and a region woken at position p only scans
    /// channels past p — exactly the outputs the reference core would
    /// still visit with that credit available.
    void allocate_awake(const std::int64_t now) {
        for (const auto r : awake_) {
            cursor_[static_cast<std::size_t>(r)] = 0;
            in_alloc_[static_cast<std::size_t>(r)] = 1;
        }
        for (;;) {
            std::int32_t best_r = -1;
            std::int32_t best_ci = std::numeric_limits<std::int32_t>::max();
            const auto consider = [&](const std::int32_t r) {
                const auto& oc = regions_[static_cast<std::size_t>(r)].out_ch;
                const auto cur = cursor_[static_cast<std::size_t>(r)];
                if (cur < oc.size() && oc[cur] < best_ci) {
                    best_ci = oc[cur];
                    best_r = r;
                }
            };
            for (const auto r : awake_) consider(r);
            for (const auto r : alloc_extra_) consider(r);
            if (best_r < 0) break;
            ++cursor_[static_cast<std::size_t>(best_r)];
            if (allocate_output(static_cast<std::size_t>(best_ci), now))
                region_active_[static_cast<std::size_t>(best_r)] = 1;
        }
        // Reset the one-flit-per-input guards we actually set — O(moved
        // flits), not O(channels): the whole-table std::fill the former
        // single-clock loop used would charge every region for one hot
        // region's cycle.
        for (const auto ci : drained_ch_scratch_)
            channel_drained_[static_cast<std::size_t>(ci)] = 0;
        for (const auto n : drained_inj_scratch_)
            inj_drained_[static_cast<std::size_t>(n)] = 0;
        drained_ch_scratch_.clear();
        drained_inj_scratch_.clear();
    }

    /// For one output channel pick one flit: wormhole continuation for
    /// locked outputs, round-robin arbitration over requesting head flits
    /// otherwise. `channel_drained_` / `inj_drained_` enforce one flit per
    /// input port per cycle across all outputs of a router.
    bool allocate_output(const std::size_t ci, const std::int64_t now) {
        Channel& out = channels_[ci];
        if (out.credits <= 0) return false;
        const auto node = static_cast<std::size_t>(out.from);
        const auto& ins = in_channels_[node];
        const auto n_sources = ins.size() + 1;
        const auto out_req = static_cast<std::int32_t>(ci);

        // Source 0 is the node's injection FIFO; source s >= 1 is the
        // FIFO of incoming channel ins[s - 1].
        auto fifo_of = [&](std::size_t s) -> std::deque<Flit>& {
            return s == 0 ? inj_fifo_[node]
                          : channels_[static_cast<std::size_t>(ins[s - 1])].fifo;
        };
        auto request_at = [&](std::size_t s) -> std::int32_t {
            return s == 0 ? inj_request_[node]
                          : ch_request_[static_cast<std::size_t>(ins[s - 1])];
        };
        auto source_free = [&](std::size_t s) -> bool {
            return s == 0 ? inj_drained_[node] == 0
                          : channel_drained_[static_cast<std::size_t>(ins[s - 1])] == 0;
        };

        std::int32_t chosen = -1;  // source index
        if (lock_[ci] >= 0) {
            // Wormhole continuation: only the owner packet may use the
            // output; find the source whose head flit belongs to it.
            for (std::size_t s = 0; s < n_sources; ++s) {
                if (!source_free(s) || request_at(s) != out_req) continue;
                if (fifo_of(s).front().packet != lock_[ci]) continue;
                chosen = static_cast<std::int32_t>(s);
                break;
            }
        } else {
            // New allocation: round-robin over head flits requesting us.
            for (std::size_t k = 0; k < n_sources; ++k) {
                const std::size_t s = (rr_[ci] + k) % n_sources;
                if (!source_free(s) || request_at(s) != out_req) continue;
                if (!fifo_of(s).front().head) continue;
                chosen = static_cast<std::int32_t>(s);
                rr_[ci] = static_cast<std::uint32_t>(s + 1);
                break;
            }
        }
        if (chosen < 0) return false;

        auto& fifo = fifo_of(static_cast<std::size_t>(chosen));
        Flit f = fifo.front();
        fifo.pop_front();
        if (chosen > 0) {
            // Credit back to the upstream channel we drained; its owning
            // region may be across the cut and asleep — wake it for the
            // remainder of this scan (channels past `ci` only).
            const auto up =
                static_cast<std::size_t>(ins[static_cast<std::size_t>(chosen) - 1]);
            ++channels_[up].credits;
            channel_drained_[up] = 1;
            drained_ch_scratch_.push_back(static_cast<std::int32_t>(up));
            wake_for_credit(ch_from_region_[up], static_cast<std::int32_t>(ci));
        } else {
            inj_drained_[node] = 1;
            drained_inj_scratch_.push_back(static_cast<std::int32_t>(node));
        }
        lock_[ci] = f.tail ? -1 : f.packet;
        --out.credits;
        ++f.hop;
        out.pipe.emplace_back(f, now + out.delay);
        // The launched flit bounds the destination region's clock: the
        // cross-cut lookahead is the channel delay.
        Region& dest = regions_[static_cast<std::size_t>(ch_to_region_[ci])];
        dest.next = std::min(dest.next, now + out.delay);
        ++res_.router_flits[node];
        ++res_.link_flits[static_cast<std::size_t>(out.link)];
        ++res_.flit_hops;
        return true;
    }

    /// Sets every participating region's local clock for the cycles after
    /// `now`, then clears the per-cycle scratch flags.
    void finish_cycle(const std::int64_t now) {
        const auto decide = [&](const std::int32_t r) {
            const auto ri = static_cast<std::size_t>(r);
            Region& R = regions_[ri];
            ++R.stepped;
            std::int64_t next;
            if (in_flight_flits_ == 0) {
                // Global idle: only a future injection can start anything.
                // This fires even for an active region (its final ejection
                // just emptied the net), so no core ever steps a cycle the
                // reference loop's idle rule would have skipped.
                next = region_next_injection(R);
            } else if (!horizon_ || region_active_[ri] || credit_touched_[ri]) {
                // Reference semantics, a moved flit, or a same-cycle credit
                // whose effect the stale request table cannot bound: run
                // the next cycle.
                next = now + 1;
            } else {
                // Local fixed point: leap to the earliest local event.
#ifndef NDEBUG
                verify_quiet(R);
#endif
                next = region_horizon(R);
            }
            if (next > now + 1 && next != kNever) ++R.jumps;
            R.next = next;
            is_awake_[ri] = 0;
            in_alloc_[ri] = 0;
            region_active_[ri] = 0;
            credit_touched_[ri] = 0;
        };
        for (const auto r : awake_) decide(r);
        for (const auto r : alloc_extra_) decide(r);
        alloc_extra_.clear();
    }

    /// Earliest cycle at which a packet of this region still waits to
    /// inject.
    [[nodiscard]] std::int64_t region_next_injection(const Region& R) const {
        std::int64_t next = kNever;
        for (const auto node : R.nodes) {
            const auto n = static_cast<std::size_t>(node);
            if (inj_cursor_[n] < per_src_[n].size()) {
                next = std::min(
                    next, packets_[static_cast<std::size_t>(per_src_[n][inj_cursor_[n]])]
                              .inject_cycle);
            }
        }
        return next;
    }

    /// Earliest local event of a quiet region: pending injection or
    /// link-pipe arrival into it. Arrival cycles within a channel are
    /// monotone (constant per-channel delay), so each pipe's front is its
    /// earliest and the scan is exact. Evaluated lazily — only when a
    /// quiet region goes to sleep — so the allocator hot path carries no
    /// event-queue bookkeeping.
    [[nodiscard]] std::int64_t region_horizon(const Region& R) const {
        std::int64_t next = region_next_injection(R);
        for (const auto ci : R.in_ch) {
            const auto& pipe = channels_[static_cast<std::size_t>(ci)].pipe;
            if (!pipe.empty()) next = std::min(next, pipe.front().second);
        }
        return next;
    }

#ifndef NDEBUG
    /// Debug cross-check of the localized no-op proof: on a region's quiet
    /// cycle every waiting head flit in it must be blocked on a
    /// zero-credit output or on a wormhole lock owned by another packet (a
    /// body flit's output lock is always owned by its own packet, and
    /// ejectable flits cannot wait — the ejection phase drains them
    /// unconditionally).
    void verify_quiet(const Region& R) const {
        const auto blocked = [&](std::int32_t req, const std::deque<Flit>& fifo) {
            if (req == kRequestNone) return true;
            if (req == kRequestEject) return false;  // would have ejected
            const auto& out = channels_[static_cast<std::size_t>(req)];
            const auto owner = lock_[static_cast<std::size_t>(req)];
            if (out.credits <= 0) return true;                  // blocked on credit
            return owner >= 0 && owner != fifo.front().packet;  // blocked on lock
        };
        for (const auto node : R.nodes) {
            const auto n = static_cast<std::size_t>(node);
            assert(blocked(inj_request_[n], inj_fifo_[n]));
        }
        for (const auto ci : R.in_ch) {
            const auto c = static_cast<std::size_t>(ci);
            assert(blocked(ch_request_[c], channels_[c].fifo));
        }
    }
#endif

    const SimConfig& cfg_;
    const bool horizon_;  ///< Quiet-region fast-forward enabled (kRegional).
    const std::size_t n_nodes_;

    std::vector<Channel> channels_;
    /// in_channels_[n] / out_channels_[n]: channels whose FIFO sits at /
    /// whose upstream router is node n.
    std::vector<std::vector<std::int32_t>> in_channels_;
    std::vector<std::vector<std::int32_t>> out_channels_;

    std::vector<Packet> packets_;
    std::vector<std::vector<std::int32_t>> per_src_;  ///< Injection schedules.
    std::vector<std::size_t> inj_cursor_;
    std::vector<std::deque<Flit>> inj_fifo_;

    std::vector<std::int32_t> lock_;  ///< Wormhole owner per output channel.
    std::vector<std::uint32_t> rr_;   ///< Round-robin pointer per output.
    std::vector<std::int32_t> inj_request_;  ///< Request table: injection FIFOs.
    std::vector<std::int32_t> ch_request_;   ///< Request table: channel FIFOs.
    std::vector<std::int8_t> channel_drained_;
    std::vector<std::int8_t> inj_drained_;

    std::vector<Region> regions_;
    std::vector<std::int32_t> ch_from_region_;  ///< Channel -> upstream region.
    std::vector<std::int32_t> ch_to_region_;    ///< Channel -> downstream region.
    /// Per-cycle scratch, all cleared by finish_cycle()/allocate_awake().
    std::vector<std::int32_t> awake_;        ///< Regions running full phases.
    std::vector<std::int32_t> alloc_extra_;  ///< Sleepers woken for allocation.
    std::vector<std::size_t> cursor_;        ///< Merge cursor per region.
    std::vector<std::int8_t> is_awake_;
    std::vector<std::int8_t> in_alloc_;
    std::vector<std::int8_t> region_active_;
    std::vector<std::int8_t> credit_touched_;
    std::vector<std::int32_t> drained_ch_scratch_;
    std::vector<std::int32_t> drained_inj_scratch_;

    SimResult res_;
    std::int64_t total_packets_ = 0;
    std::int64_t delivered_packets_ = 0;
    std::int64_t in_flight_flits_ = 0;
    std::int64_t injected_flits_ = 0;
};

}  // namespace

const char* sim_core_name(SimCore c) {
    switch (c) {
        case SimCore::kReference: return "reference";
        case SimCore::kRegional: return "regional";
    }
    return "?";
}

std::optional<SimCore> sim_core_from_name(std::string_view name) {
    if (name == "reference") return SimCore::kReference;
    if (name == "regional") return SimCore::kRegional;
    return std::nullopt;
}

SimCore resolved_sim_core(SimCore configured) {
    if (const auto forced = core_env_override()) return *forced;
    return configured;
}

Simulator::Simulator(const topo::Topology& topo, const RouteTable& routes, SimConfig cfg)
    : topo_(topo), routes_(routes), cfg_(cfg) {
    if (topo.node_count() != routes.node_count())
        throw std::invalid_argument("route table built for a different topology");
    cfg_.core = resolved_sim_core(cfg_.core);
}

void Simulator::add_demand(const Demand& d) {
    if (d.src < 0 || d.dst < 0 || d.src >= topo_.node_count() ||
        d.dst >= topo_.node_count())
        throw std::out_of_range("demand endpoint out of range");
    if (d.src == d.dst || d.bytes <= 0) return;  // local or empty: no traffic
    demands_.push_back(d);
}

void Simulator::add_demands(const std::vector<Demand>& ds) {
    for (const auto& d : ds) add_demand(d);
}

SimResult Simulator::run() {
    Engine engine(topo_, routes_, cfg_, demands_);
    demands_.clear();
    return engine.run();
}

}  // namespace floretsim::noc
