#include "src/noc/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"

namespace floretsim::noc {
namespace {

using topo::NodeId;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

struct Packet {
    NodeId src = -1;
    std::int32_t flits = 0;
    std::int64_t inject_cycle = 0;
    /// Channel path of the packet's demand: route[h] is the output a flit
    /// that has crossed h channels requests; h == route.size() means the
    /// flit sits at its destination.
    const std::vector<std::int32_t>* route = nullptr;
};

struct Flit {
    std::int32_t packet = -1;
    std::int32_t hop = 0;  ///< Channels crossed so far (index into the route).
    bool head = false;
    bool tail = false;
};

/// One directed channel (half of a bidirectional link). Its input FIFO at
/// the downstream router is the source with the channel's index.
struct Channel {
    NodeId from = -1;
    NodeId to = -1;
    topo::LinkId link = -1;
    std::int32_t delay = 1;
    std::int32_t credits = 0;  ///< Space left downstream.
};

/// A flit on the wire of `channel`; its wheel slot encodes the landing cycle.
struct Arrival {
    std::int32_t channel = -1;
    Flit flit;
};

/// Fixed-universe bit set whose members are visited in ascending order at
/// O(universe / 64 + members) cost.
class BitSet {
public:
    explicit BitSet(std::size_t n) : words_((n + 63) / 64, 0) {}
    void insert(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
    void erase(std::size_t i) { words_[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }
    void clear() { std::fill(words_.begin(), words_.end(), 0); }
    /// fn may erase the member it is given; it must not insert.
    template <class Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (auto bits = words_[w]; bits != 0; bits &= bits - 1)
                fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }

private:
    std::vector<std::uint64_t> words_;
};

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
                                    "' (expected 'reference' or 'activity')");
    }();
    return parsed;
}

/// One simulation run on one global clock. Each stepped cycle runs the
/// reference phases — inject, deliver, eject, allocate. Flits move between
/// *sources*: sources [0, C) are the input FIFOs of the C channels,
/// sources [C, C + N) the injection FIFOs of the N nodes.
///
/// The activity core earns the reference core's bits with three rules:
///
///   - Ascending visits. Ejection visits the occupied channel FIFOs and
///     allocation the requested outputs, each in ascending channel index —
///     the reference order restricted to the ports that can act. Ejection
///     order fixes the floating-point accumulation order of
///     packet_latency; allocation order fixes the same-cycle credit/drain
///     coupling between channels. A skipped port is a no-op on the
///     reference core too: an empty FIFO ejects nothing, and an output no
///     head flit requests finds no source.
///
///   - Lazy requests. A head flit's request is read from its route when an
///     output scans its sources, not from a table. Requests can only
///     vanish during allocation (a drained source is skipped for the rest
///     of the cycle before its new head is read), so the requested set
///     built after ejection covers every output that can allocate.
///
///   - The quiet-cycle fixed point. Credits, locks, round-robin pointers
///     and FIFOs mutate only through ejection and allocation, so a cycle
///     that ejects and allocates nothing leaves the network at a fixed
///     point until the next link arrival or injection, and the clock jumps
///     there. verify_quiet() cross-checks the proof in debug builds.
///
/// Link pipelines are one arrival wheel of max-delay + 1 slots (every
/// queued arrival lands within the next max-delay cycles, so slots never
/// alias), and injections one due list of packets by inject cycle.
class Engine {
public:
    Engine(const topo::Topology& topo, const RouteTable& routes, const SimConfig& cfg,
           const std::vector<Demand>& demands)
        : cfg_(cfg),
          reference_(cfg.core == SimCore::kReference),
          n_channels_(topo.links().size() * 2),
          occupied_(n_channels_ + static_cast<std::size_t>(topo.node_count())),
          requested_(n_channels_) {
        const auto n_nodes = static_cast<std::size_t>(topo.node_count());

        // --- Directed channels: 2 per link. A node's switch sources are its
        // injection FIFO, then its in-channels in ascending index.
        channels_.reserve(n_channels_);
        std::vector<std::vector<std::int32_t>> out_channels(n_nodes);
        inputs_.resize(n_nodes);
        for (std::size_t n = 0; n < n_nodes; ++n)
            inputs_[n].push_back(static_cast<std::int32_t>(n_channels_ + n));
        std::int32_t max_delay = 0;
        for (const auto& l : topo.links()) {
            const auto delay = std::max<std::int32_t>(
                1, static_cast<std::int32_t>(std::lround(l.length_mm / cfg_.mm_per_cycle))) +
                               cfg_.router_delay_cycles;
            max_delay = std::max(max_delay, delay);
            for (const auto& [from, to] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
                const auto idx = static_cast<std::int32_t>(channels_.size());
                channels_.push_back({from, to, l.id, delay, cfg_.input_buffer_flits});
                inputs_[static_cast<std::size_t>(to)].push_back(idx);
                out_channels[static_cast<std::size_t>(from)].push_back(idx);
            }
        }
        fifo_.resize(n_channels_ + n_nodes);
        wheel_.resize(static_cast<std::size_t>(max_delay) + 1);

        // --- Packetize demands along channel paths resolved once per demand.
        routes_.reserve(demands.size());
        for (const auto& d : demands) {
            const auto& path = routes.route(d.src, d.dst);
            if (path.size() < 2)
                throw std::logic_error("no route for demand " + std::to_string(d.src) +
                                       "->" + std::to_string(d.dst));
            auto& route = routes_.emplace_back();
            for (std::size_t h = 0; h + 1 < path.size(); ++h) {
                const auto& outs = out_channels[static_cast<std::size_t>(path[h])];
                const auto it = std::find_if(outs.begin(), outs.end(), [&](std::int32_t ci) {
                    return channels_[static_cast<std::size_t>(ci)].to == path[h + 1];
                });
                if (it == outs.end())
                    throw std::logic_error("route step " + std::to_string(path[h]) + "->" +
                                           std::to_string(path[h + 1]) + " has no link");
                route.push_back(*it);
            }
            const auto total_flits = std::max<std::int64_t>(
                1, (d.bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes);
            for (std::int64_t remaining = total_flits; remaining > 0;) {
                const auto take = static_cast<std::int32_t>(
                    std::min<std::int64_t>(remaining, cfg_.max_packet_flits));
                packets_.push_back({d.src, take, 0, &route});
                remaining -= take;
            }
        }

        // Round-robin interleave packets of each source across the
        // injection window implied by the configured injection rate. The
        // per-source std::sort fixes the order of a source's same-cycle
        // packets (results depend on it); the stable merge into one due
        // list keeps that order.
        std::vector<std::vector<std::int32_t>> per_src(n_nodes);
        for (std::size_t pid = 0; pid < packets_.size(); ++pid)
            per_src[static_cast<std::size_t>(packets_[pid].src)].push_back(
                static_cast<std::int32_t>(pid));
        const auto by_cycle = [&](std::int32_t a, std::int32_t b) {
            return packets_[static_cast<std::size_t>(a)].inject_cycle <
                   packets_[static_cast<std::size_t>(b)].inject_cycle;
        };
        const double rate = std::max(1e-9, cfg_.injection_rate);
        due_.reserve(packets_.size());
        for (auto& ids : per_src) {
            double cursor = 0.0;
            for (const auto pid : ids) {
                auto& p = packets_[static_cast<std::size_t>(pid)];
                p.inject_cycle = static_cast<std::int64_t>(cursor);
                cursor += static_cast<double>(p.flits) / rate;
            }
            std::sort(ids.begin(), ids.end(), by_cycle);
            due_.insert(due_.end(), ids.begin(), ids.end());
        }
        std::stable_sort(due_.begin(), due_.end(), by_cycle);

        // --- Arbiter state.
        lock_.assign(n_channels_, -1);
        rr_.assign(n_channels_, 0);
        drained_.assign(fifo_.size(), 0);

        res_.router_flits.assign(n_nodes, 0);
        res_.link_flits.assign(topo.links().size(), 0);
        total_packets_ = static_cast<std::int64_t>(packets_.size());
    }

    SimResult run() {
        std::int64_t now = 0;
        std::int64_t wake = next_injection();  // earliest cycle that can act
        while (delivered_packets_ < total_packets_ && now < cfg_.max_cycles) {
            if (wake > now) {
                // Nothing can change before `wake`: jump there, clamped to
                // max_cycles so a capped run reports the same cycle count
                // as stepping to the cap would (wake is kNever when every
                // in-flight flit is wedged: the jump then burns the
                // remaining budget exactly like the reference loop does).
                if (in_flight_flits_ == 0 && wake == kNever)
                    break;  // nothing left anywhere
                const std::int64_t target = std::min(wake, cfg_.max_cycles);
                res_.cycles_skipped += target - now;
                ++res_.horizon_jumps;
                now = target;
                continue;
            }
            const bool moved = step(now);
            ++now;
            ++res_.cycles_stepped;
            if (in_flight_flits_ == 0) {
                // Idle: only a future injection can start anything (both
                // cores; it fires even right after the final ejection).
                wake = next_injection();
            } else if (reference_ || moved) {
                wake = now;
            } else {
#ifndef NDEBUG
                verify_quiet();
#endif
                wake = std::min(next_arrival(now), next_injection());
            }
        }
        res_.cycles = now;
        res_.packets = delivered_packets_;
        res_.completed = delivered_packets_ == total_packets_;
        if (res_.completed) check_drained();
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
    /// fabric) — and `sim.arbitrations` counts the outputs the allocate
    /// phase visited to win them.
    void flush_metrics() const {
        auto& m = obs::MetricsRegistry::global();
        if (!m.enabled()) return;
        m.add("sim.runs");
        m.add("sim.cycles", res_.cycles);
        m.add("sim.cycles_stepped", res_.cycles_stepped);
        m.add("sim.cycles_skipped", res_.cycles_skipped);
        m.add("sim.horizon_jumps", res_.horizon_jumps);
        m.add("sim.arbitrations", res_.arbitrations);
        m.add("sim.phase_inject_flits", injected_flits_);
        m.add("sim.phase_alloc_hops", res_.flit_hops);
        m.add("sim.phase_eject_flits", res_.flits);
        m.observe("sim.run_cycles", static_cast<double>(res_.cycles));
    }

    /// One cycle of the reference semantics; true when a flit ejected or
    /// won an output.
    bool step(const std::int64_t now) {
        // 1. Injection: move due packets into their source FIFOs as flits.
        for (; next_due_ < due_.size(); ++next_due_) {
            const auto pid = due_[next_due_];
            const Packet& p = packets_[static_cast<std::size_t>(pid)];
            if (p.inject_cycle > now) break;
            const auto s = n_channels_ + static_cast<std::size_t>(p.src);
            for (std::int32_t f = 0; f < p.flits; ++f)
                fifo_[s].push_back({pid, 0, f == 0, f == p.flits - 1});
            occupied_.insert(s);
            in_flight_flits_ += p.flits;
            injected_flits_ += p.flits;
        }

        // 2. Link pipelines: this cycle's wheel slot lands in the
        // downstream FIFOs. A channel launches at most one flit per cycle
        // and its delay is constant, so a slot holds each channel at most
        // once and its order is immaterial.
        auto& slot = wheel_[static_cast<std::size_t>(now) % wheel_.size()];
        for (const auto& a : slot) {
            fifo_[static_cast<std::size_t>(a.channel)].push_back(a.flit);
            occupied_.insert(static_cast<std::size_t>(a.channel));
        }
        slot.clear();

        // 3. Ejection (one flit per input port per cycle). Injection FIFOs
        // hold flits at hop 0, never at their destination.
        bool moved = false;
        const auto eject = [&](std::size_t ci) { moved |= try_eject(ci, now); };
        if (reference_) {
            for (std::size_t ci = 0; ci < n_channels_; ++ci) eject(ci);
        } else {
            occupied_.for_each([&](std::size_t s) {
                if (s < n_channels_) eject(s);
            });
        }

        // 4. Switch allocation.
        const auto allocate = [&](std::size_t ci) { moved |= allocate_output(ci, now); };
        if (reference_) {
            for (std::size_t ci = 0; ci < n_channels_; ++ci) allocate(ci);
        } else {
            occupied_.for_each([&](std::size_t s) {
                const Flit& f = fifo_[s].front();
                const auto& route = *packets_[static_cast<std::size_t>(f.packet)].route;
                if (static_cast<std::size_t>(f.hop) < route.size())
                    requested_.insert(static_cast<std::size_t>(route[static_cast<std::size_t>(f.hop)]));
            });
            requested_.for_each(allocate);
            requested_.clear();
        }
        for (const auto s : drained_list_) drained_[static_cast<std::size_t>(s)] = 0;
        drained_list_.clear();
        return moved;
    }

    /// Pops the front flit of source `s`, keeping the occupied set exact.
    Flit pop(const std::size_t s) {
        const Flit f = fifo_[s].front();
        fifo_[s].pop_front();
        if (fifo_[s].empty()) occupied_.erase(s);
        return f;
    }

    /// Ejects the front flit of channel `ci` if it sits at its destination,
    /// returning its buffer slot as a credit upstream.
    bool try_eject(const std::size_t ci, const std::int64_t now) {
        if (fifo_[ci].empty()) return false;
        const Flit& f = fifo_[ci].front();
        const Packet& p = packets_[static_cast<std::size_t>(f.packet)];
        if (static_cast<std::size_t>(f.hop) != p.route->size()) return false;
        if (f.tail) {
            ++delivered_packets_;
            res_.packet_latency.add(static_cast<double>(now - p.inject_cycle));
        }
        ++res_.flits;
        --in_flight_flits_;
        pop(ci);
        ++channels_[ci].credits;
        return true;
    }

    /// For one output channel pick one flit: wormhole continuation for
    /// locked outputs, round-robin arbitration over requesting head flits
    /// otherwise. `drained_` enforces one flit per source per cycle across
    /// all outputs of a router.
    bool allocate_output(const std::size_t ci, const std::int64_t now) {
        ++res_.arbitrations;
        Channel& out = channels_[ci];
        if (out.credits <= 0) return false;
        const auto& srcs = inputs_[static_cast<std::size_t>(out.from)];
        const auto n_sources = srcs.size();

        // The head flit of an undrained source, if it requests this output.
        const auto requester = [&](std::size_t k) -> const Flit* {
            const auto s = static_cast<std::size_t>(srcs[k]);
            if (drained_[s] || fifo_[s].empty()) return nullptr;
            const Flit& f = fifo_[s].front();
            const auto& route = *packets_[static_cast<std::size_t>(f.packet)].route;
            const auto hop = static_cast<std::size_t>(f.hop);
            return hop < route.size() && static_cast<std::size_t>(route[hop]) == ci ? &f
                                                                                   : nullptr;
        };

        std::size_t chosen = n_sources;  // index into srcs
        if (lock_[ci] >= 0) {
            // Wormhole continuation: only the owner packet may use the
            // output; find the source whose head flit belongs to it.
            for (std::size_t k = 0; k < n_sources; ++k) {
                const Flit* f = requester(k);
                if (f == nullptr || f->packet != lock_[ci]) continue;
                chosen = k;
                break;
            }
        } else {
            // New allocation: round-robin over head flits requesting us.
            for (std::size_t j = 0; j < n_sources; ++j) {
                const std::size_t k = (rr_[ci] + j) % n_sources;
                const Flit* f = requester(k);
                if (f == nullptr || !f->head) continue;
                chosen = k;
                rr_[ci] = static_cast<std::uint32_t>(k + 1);
                break;
            }
        }
        if (chosen == n_sources) return false;

        const auto s = static_cast<std::size_t>(srcs[chosen]);
        Flit f = pop(s);
        if (s < n_channels_) ++channels_[s].credits;  // the drained slot upstream
        drained_[s] = 1;
        drained_list_.push_back(static_cast<std::int32_t>(s));
        lock_[ci] = f.tail ? -1 : f.packet;
        --out.credits;
        ++f.hop;
        wheel_[static_cast<std::size_t>(now + out.delay) % wheel_.size()].push_back(
            {static_cast<std::int32_t>(ci), f});
        ++res_.router_flits[static_cast<std::size_t>(out.from)];
        ++res_.link_flits[static_cast<std::size_t>(out.link)];
        ++res_.flit_hops;
        return true;
    }

    [[nodiscard]] std::int64_t next_injection() const {
        return next_due_ < due_.size()
                   ? packets_[static_cast<std::size_t>(due_[next_due_])].inject_cycle
                   : kNever;
    }

    /// Earliest cycle >= now at which the wheel lands a flit. Every queued
    /// arrival lies less than one lap ahead, so one lap is exact.
    [[nodiscard]] std::int64_t next_arrival(const std::int64_t now) const {
        const auto lap = static_cast<std::int64_t>(wheel_.size());
        for (std::int64_t t = now; t < now + lap; ++t)
            if (!wheel_[static_cast<std::size_t>(t % lap)].empty()) return t;
        return kNever;
    }

    /// End-of-run conservation check of a completed run, O(channels +
    /// nodes) and on in every build type: a drained network holds no flit
    /// in any FIFO or on any wire, every credit is home, no wormhole lock
    /// is held, and the flit ledgers balance. A violation is an engine bug;
    /// throwing keeps it out of every figure priced from this run.
    void check_drained() const {
        const auto fail = [](const std::string& what) {
            throw std::logic_error("noc::Simulator end-of-run check: " + what);
        };
        const auto channel = [&](std::size_t ci) {
            const Channel& c = channels_[ci];
            return "channel " + std::to_string(ci) + " (" + std::to_string(c.from) + "->" +
                   std::to_string(c.to) + ")";
        };
        for (std::size_t s = 0; s < fifo_.size(); ++s)
            if (!fifo_[s].empty())
                fail((s < n_channels_ ? channel(s) + " input FIFO"
                                      : "node " + std::to_string(s - n_channels_) +
                                            " injection FIFO") +
                     " still holds " + std::to_string(fifo_[s].size()) + " flit(s)");
        for (const auto& slot : wheel_)
            if (!slot.empty())
                fail(channel(static_cast<std::size_t>(slot.front().channel)) +
                     " still carries a flit on its link");
        for (std::size_t ci = 0; ci < n_channels_; ++ci) {
            if (channels_[ci].credits != cfg_.input_buffer_flits)
                fail(channel(ci) + " holds " + std::to_string(channels_[ci].credits) +
                     " credits, expected " + std::to_string(cfg_.input_buffer_flits));
            if (lock_[ci] >= 0)
                fail(channel(ci) + " wormhole lock still held by packet " +
                     std::to_string(lock_[ci]));
        }
        if (injected_flits_ != res_.flits)
            fail("injected " + std::to_string(injected_flits_) + " flits but ejected " +
                 std::to_string(res_.flits));
        const auto sum = [](const std::vector<std::int64_t>& v) {
            return std::accumulate(v.begin(), v.end(), std::int64_t{0});
        };
        if (sum(res_.link_flits) != res_.flit_hops)
            fail("per-link flits sum to " + std::to_string(sum(res_.link_flits)) +
                 ", flit_hops is " + std::to_string(res_.flit_hops));
        if (sum(res_.router_flits) != res_.flit_hops)
            fail("per-router flits sum to " + std::to_string(sum(res_.router_flits)) +
                 ", flit_hops is " + std::to_string(res_.flit_hops));
    }

#ifndef NDEBUG
    /// Debug cross-check of the no-op proof on a quiet cycle: every waiting
    /// head flit must be blocked on a zero-credit output or on a wormhole
    /// lock owned by another packet (a body flit's output lock is always
    /// owned by its own packet, and ejectable flits cannot wait — the
    /// ejection phase drains them unconditionally).
    void verify_quiet() const {
        occupied_.for_each([&](std::size_t s) {
            const Flit& f = fifo_[s].front();
            const auto& route = *packets_[static_cast<std::size_t>(f.packet)].route;
            assert(static_cast<std::size_t>(f.hop) < route.size() && "would have ejected");
            const auto out = static_cast<std::size_t>(route[static_cast<std::size_t>(f.hop)]);
            const auto owner = lock_[out];
            assert(channels_[out].credits <= 0 || (owner >= 0 && owner != f.packet));
        });
    }
#endif

    const SimConfig& cfg_;
    const bool reference_;  ///< Visit every channel (kReference).
    const std::size_t n_channels_;

    std::vector<Channel> channels_;
    /// inputs_[n]: node n's switch sources — its injection FIFO, then its
    /// in-channels ascending (round-robin pointers index this list).
    std::vector<std::vector<std::int32_t>> inputs_;
    std::vector<std::deque<Flit>> fifo_;  ///< Per source (see class comment).
    BitSet occupied_;                     ///< Sources with a non-empty FIFO.
    BitSet requested_;                    ///< Per-cycle scratch: requested outputs.
    std::vector<std::vector<Arrival>> wheel_;  ///< Slot t % size: landings at t.

    std::vector<std::vector<std::int32_t>> routes_;  ///< Channel path per demand.
    std::vector<Packet> packets_;
    std::vector<std::int32_t> due_;  ///< Packet ids by inject cycle.
    std::size_t next_due_ = 0;

    std::vector<std::int32_t> lock_;  ///< Wormhole owner per output channel.
    std::vector<std::uint32_t> rr_;   ///< Round-robin pointer per output.
    std::vector<std::int8_t> drained_;       ///< Source gave a flit this cycle.
    std::vector<std::int32_t> drained_list_;  ///< Sources to reset after allocation.

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
        case SimCore::kActivity: return "activity";
    }
    return "?";
}

std::optional<SimCore> sim_core_from_name(std::string_view name) {
    if (name == "reference") return SimCore::kReference;
    if (name == "activity") return SimCore::kActivity;
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
