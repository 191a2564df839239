#include "src/noc/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace floretsim::noc {
namespace {

using topo::NodeId;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// A router's switch sources are its injection port (position 0) and its
/// in-channels; the activity core's request masks hold one bit per source.
constexpr std::size_t kMaxRouterSources = 64;

struct Packet {
    NodeId src = -1;
    std::int32_t flits = 0;
    std::int64_t inject_cycle = 0;
    std::int32_t first_hop = 0;  ///< Start of its demand's path in the hop array.
};

struct Flit {
    std::int32_t packet = -1;
    /// Index into the run's hop array: hops_[hop] is the output the flit
    /// requests next, or -1 once it sits at its destination.
    std::int32_t hop = 0;
    bool head = false;
    bool tail = false;
};

/// One directed channel (half of a bidirectional link): an output of
/// router `from` with its arbiter, and an input FIFO at router `to`, which
/// is the source with the channel's index.
struct Channel {
    NodeId from = -1;
    NodeId to = -1;
    topo::LinkId link = -1;
    std::int32_t delay = 1;
    std::int32_t credits = 0;  ///< Space left downstream.
    /// Wormhole owner, -1 when free: the owning packet on the reference
    /// core, the owner's source position at `from` on the activity core.
    std::int32_t lock = -1;
    std::uint32_t rr = 0;  ///< Round-robin pointer: a source position at `from`.
    /// Router `from`'s sources are sources_[first_source, first_source +
    /// n_sources), by position (a copy per output saves the allocator a
    /// dependent load).
    std::uint32_t first_source = 0;
    std::uint64_t req = 0;   ///< Activity core: positions of the heads enrolled here.
    std::int64_t flits = 0;  ///< Flits sent; folded into the per-router/link counts.
    /// Flits on the wire that will not eject on landing at `to`.
    std::int32_t transit = 0;
    std::uint16_t n_sources = 0;
    std::uint16_t position = 0;    ///< This FIFO's source position at `to`.
    std::uint32_t fifo_front = 0;  ///< Ring slot of the FIFO's front flit.
    std::uint32_t fifo_size = 0;
};

/// A node's injection FIFO without materialized flits: the due, not yet
/// fully sent packets are a slice of the run's per-node packet order, and
/// a cursor counts the flits of the front packet already forwarded.
struct InjectionQueue {
    std::int32_t front = 0;  ///< Index of the front packet in inj_order_.
    std::int32_t end = 0;    ///< One past the node's last due packet.
    std::int32_t sent = 0;
};

/// A flit on the wire of `channel`; its wheel slot encodes the landing cycle.
struct Arrival {
    std::int32_t channel = -1;
    Flit flit;
};

/// Activity core: the single-hop train on output `channel` releases at
/// `cycle`, when its tail leaves.
struct Release {
    std::int64_t cycle = 0;
    std::int32_t channel = -1;
};

/// Fixed-universe bit set whose members are visited in ascending order at
/// O(universe / 64 + members) cost.
class BitSet {
public:
    explicit BitSet(std::size_t n) : words_((n + 63) / 64, 0) {}
    void insert(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
    void erase(std::size_t i) { words_[i / 64] &= ~(std::uint64_t{1} << (i % 64)); }
    [[nodiscard]] bool empty() const {
        return std::all_of(words_.begin(), words_.end(),
                           [](std::uint64_t w) { return w == 0; });
    }
    /// fn may insert and erase members. A member inserted above the one
    /// being visited is visited in this same pass; one inserted at or below
    /// it waits for the next pass.
    template <class Fn>
    void for_each(Fn&& fn) {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t above = ~std::uint64_t{0}; (words_[w] & above) != 0;) {
                const int b = std::countr_zero(words_[w] & above);
                above = (~std::uint64_t{0} << b) << 1;
                fn(w * 64 + static_cast<std::size_t>(b));
            }
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
/// The reference core ejects from every channel and lets every output scan
/// its router's sources. The activity core earns the same bits with five
/// rules:
///
///   - Request masks. A head flit requests exactly one output. When a flit
///     becomes the head of its FIFO it enrolls once, as its source's bit in
///     that output's request mask, or in the eject set when it sits at its
///     destination. A source that gives a flit during allocation enrolls
///     its new head only after the allocation phase (the reference skips a
///     drained source for the rest of the cycle); a pop by ejection
///     enrolls the new head at once (the reference lets a FIFO eject one
///     flit and forward the next in the same cycle).
///
///   - Source-position locks. A packet's flits are contiguous in one FIFO,
///     so a wormhole lock stores its owner's source position, and a free
///     output's enrolled flits are all heads: round-robin is a rotate and
///     count-trailing-zeros of the mask.
///
///   - Ascending visits of exact sets. The ready set holds the outputs with
///     a credit whose owner is enrolled (locked) or whose mask is non-empty
///     (free); the eject set the channels whose head sits at its
///     destination. Both are kept exact on every change and visited in
///     ascending channel index, the reference order restricted to the ports
///     that move a flit. An output that becomes ready above the cursor (a
///     drained channel FIFO returns a credit) is visited in the same pass,
///     as the reference's ascending scan would; one below waits a cycle.
///
///   - Single-hop trains. When a free output grants the head of an
///     injected packet whose whole path is that one hop, into an empty
///     FIFO with only ejecting flits on the wire, a buffer at least the
///     link delay deep and the tail's landing before max_cycles, the
///     reference forwards one flit per cycle and ejects each on landing.
///     The output is booked for the whole packet at the grant, the flits
///     that land while it stays locked are delivered at once, and the last
///     min(L, delay) go on the wheel when the tail leaves (the release).
///
///   - The quiet-cycle fixed point. Credits, locks, round-robin pointers
///     and FIFOs mutate only through ejection, allocation and releases, so
///     a cycle that ejects and allocates nothing leaves the network at a
///     fixed point until the next link arrival, injection or release, and
///     the clock jumps there. verify_quiet() cross-checks the proof in
///     debug builds.
///
/// Channel FIFOs are fixed-depth rings: credits bound each to
/// input_buffer_flits. Link pipelines are one arrival wheel of at least
/// max-delay + 1 slots, a power of two (every queued arrival lands within
/// the next max-delay cycles, so slots never alias), and injections one due
/// list of packets by inject cycle.
class Engine {
public:
    Engine(const topo::Topology& topo, const RouteTable& routes, const SimConfig& cfg,
           const std::vector<Demand>& demands)
        : cfg_(cfg),
          reference_(cfg.core == SimCore::kReference),
          n_channels_(topo.links().size() * 2),
          ready_(n_channels_),
          eject_(n_channels_) {
        const auto n_nodes = static_cast<std::size_t>(topo.node_count());

        // --- Directed channels: 2 per link. A node's switch sources are its
        // injection FIFO, then its in-channels in ascending index.
        channels_.reserve(n_channels_);
        std::vector<std::vector<std::int32_t>> out_channels(n_nodes);
        std::vector<std::vector<std::int32_t>> inputs(n_nodes);
        for (std::size_t n = 0; n < n_nodes; ++n)
            inputs[n].push_back(static_cast<std::int32_t>(n_channels_ + n));
        std::int32_t max_delay = 0;
        for (const auto& l : topo.links()) {
            const auto delay = std::max<std::int32_t>(
                1, static_cast<std::int32_t>(std::lround(l.length_mm / cfg_.mm_per_cycle))) +
                               cfg_.router_delay_cycles;
            max_delay = std::max(max_delay, delay);
            for (const auto& [from, to] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
                const auto idx = static_cast<std::int32_t>(channels_.size());
                auto& in = inputs[static_cast<std::size_t>(to)];
                Channel c{from, to, l.id, delay, cfg_.input_buffer_flits};
                c.position = static_cast<std::uint16_t>(in.size());
                channels_.push_back(c);
                in.push_back(idx);
                out_channels[static_cast<std::size_t>(from)].push_back(idx);
            }
        }
        std::vector<std::uint32_t> first_source(n_nodes);
        for (std::size_t n = 0; n < n_nodes; ++n) {
            if (inputs[n].size() > kMaxRouterSources)
                throw std::invalid_argument(
                    "node " + std::to_string(n) + " has " +
                    std::to_string(inputs[n].size() - 1) +
                    " in-channels; a router takes at most " +
                    std::to_string(kMaxRouterSources - 1) + " plus its injection port");
            first_source[n] = static_cast<std::uint32_t>(sources_.size());
            sources_.insert(sources_.end(), inputs[n].begin(), inputs[n].end());
        }
        for (auto& c : channels_) {
            const auto from = static_cast<std::size_t>(c.from);
            c.first_source = first_source[from];
            c.n_sources = static_cast<std::uint16_t>(inputs[from].size());
        }
        wheel_.resize(std::bit_ceil(static_cast<std::size_t>(max_delay) + 1));
        wheel_mask_ = wheel_.size() - 1;

        // --- Packetize demands along channel paths resolved once per
        // demand into one flat hop array, each path ended by -1.
        std::int64_t total_flits = 0;
        for (const auto& d : demands) {
            const auto& path = routes.route(d.src, d.dst);
            if (path.size() < 2)
                throw std::logic_error("no route for demand " + std::to_string(d.src) +
                                       "->" + std::to_string(d.dst));
            const auto first_hop = static_cast<std::int32_t>(hops_.size());
            for (std::size_t h = 0; h + 1 < path.size(); ++h) {
                const auto& outs = out_channels[static_cast<std::size_t>(path[h])];
                const auto it = std::find_if(outs.begin(), outs.end(), [&](std::int32_t ci) {
                    return channels_[static_cast<std::size_t>(ci)].to == path[h + 1];
                });
                if (it == outs.end())
                    throw std::logic_error("route step " + std::to_string(path[h]) + "->" +
                                           std::to_string(path[h + 1]) + " has no link");
                hops_.push_back(*it);
            }
            hops_.push_back(-1);
            const auto demand_flits = std::max<std::int64_t>(
                1, (d.bytes + cfg_.flit_bytes - 1) / cfg_.flit_bytes);
            total_flits += demand_flits;
            for (std::int64_t remaining = demand_flits; remaining > 0;) {
                const auto take = static_cast<std::int32_t>(
                    std::min<std::int64_t>(remaining, cfg_.max_packet_flits));
                packets_.push_back({d.src, take, 0, first_hop});
                remaining -= take;
            }
        }

        // A ring of the credit bound (never more than the run's flits, so
        // a deep configured buffer costs no memory) rounded up to a power
        // of two.
        ring_cap_ = std::bit_ceil(static_cast<std::uint32_t>(
            std::clamp<std::int64_t>(total_flits, 1, cfg_.input_buffer_flits)));
        ring_.resize(n_channels_ * ring_cap_);

        // Round-robin interleave packets of each source across the
        // injection window implied by the configured injection rate. The
        // per-source std::sort fixes the order of a source's same-cycle
        // packets (results depend on it); concatenated, the sorted lists
        // are the injection FIFOs' packet order, and their stable merge by
        // cycle is the due list, which keeps each node's order.
        std::vector<std::vector<std::int32_t>> per_src(n_nodes);
        for (std::size_t pid = 0; pid < packets_.size(); ++pid)
            per_src[static_cast<std::size_t>(packets_[pid].src)].push_back(
                static_cast<std::int32_t>(pid));
        const auto by_cycle = [&](std::int32_t a, std::int32_t b) {
            return packets_[static_cast<std::size_t>(a)].inject_cycle <
                   packets_[static_cast<std::size_t>(b)].inject_cycle;
        };
        const double rate = std::max(1e-9, cfg_.injection_rate);
        inj_.resize(n_nodes);
        inj_order_.reserve(packets_.size());
        for (std::size_t n = 0; n < n_nodes; ++n) {
            auto& ids = per_src[n];
            double cursor = 0.0;
            for (const auto pid : ids) {
                auto& p = packets_[static_cast<std::size_t>(pid)];
                p.inject_cycle = static_cast<std::int64_t>(cursor);
                cursor += static_cast<double>(p.flits) / rate;
            }
            std::sort(ids.begin(), ids.end(), by_cycle);
            const auto begin = static_cast<std::int32_t>(inj_order_.size());
            inj_[n] = {begin, begin, 0};
            inj_order_.insert(inj_order_.end(), ids.begin(), ids.end());
        }
        due_ = inj_order_;
        std::stable_sort(due_.begin(), due_.end(), by_cycle);

        if (reference_)
            last_gave_.assign(n_channels_ + n_nodes, -1);
        else
            reenroll_.reserve(n_channels_);

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
                wake = std::min({next_arrival(now), next_injection(), next_release()});
            }
        }
        for (const Channel& c : channels_) {
            res_.router_flits[static_cast<std::size_t>(c.from)] += c.flits;
            res_.link_flits[static_cast<std::size_t>(c.link)] += c.flits;
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
    /// phase visited to win them. `sim.trains` counts single-hop trains and
    /// `sim.train_flits` their flits that never touched the wheel.
    void flush_metrics() const {
        auto& m = obs::MetricsRegistry::global();
        if (!m.enabled()) return;
        m.add("sim.runs");
        m.add("sim.cycles", res_.cycles);
        m.add("sim.cycles_stepped", res_.cycles_stepped);
        m.add("sim.cycles_skipped", res_.cycles_skipped);
        m.add("sim.horizon_jumps", res_.horizon_jumps);
        m.add("sim.arbitrations", res_.arbitrations);
        m.add("sim.trains", res_.trains);
        m.add("sim.train_flits", train_flits_);
        m.add("sim.phase_inject_flits", injected_flits_);
        m.add("sim.phase_alloc_hops", res_.flit_hops);
        m.add("sim.phase_eject_flits", res_.flits);
        m.observe("sim.run_cycles", static_cast<double>(res_.cycles));
    }

    /// One cycle of the reference semantics; true when a flit ejected or
    /// won an output.
    bool step(const std::int64_t now) {
        // 1. Injection: due packets join their node's injection FIFO.
        for (; next_due_ < due_.size(); ++next_due_) {
            const auto pid = due_[next_due_];
            const Packet& p = packets_[static_cast<std::size_t>(pid)];
            if (p.inject_cycle > now) break;
            auto& q = inj_[static_cast<std::size_t>(p.src)];
            assert(inj_order_[static_cast<std::size_t>(q.end)] == pid);
            if (q.end++ == q.front) enroll(n_channels_ + static_cast<std::size_t>(p.src));
            in_flight_flits_ += p.flits;
            injected_flits_ += p.flits;
        }

        // 2. Link pipelines: this cycle's wheel slot lands in the
        // downstream FIFOs. A channel launches at most one flit per cycle
        // and its delay is constant, so a slot holds each channel at most
        // once and its order is immaterial.
        auto& slot = wheel_[static_cast<std::size_t>(now) & wheel_mask_];
        for (const auto& a : slot) {
            const auto ci = static_cast<std::size_t>(a.channel);
            Channel& c = channels_[ci];
            assert(c.fifo_size < ring_cap_ && "credits bound the FIFO");
            if (hops_[static_cast<std::size_t>(a.flit.hop)] >= 0) --c.transit;
            ring_[ci * ring_cap_ + ((c.fifo_front + c.fifo_size) & (ring_cap_ - 1))] = a.flit;
            if (++c.fifo_size == 1) enroll(ci);
        }
        slot.clear();

        // 3. Ejection (one flit per input port per cycle). Injection FIFOs
        // hold flits at their first hop, never at their destination.
        bool moved = false;
        if (reference_) {
            for (std::size_t ci = 0; ci < n_channels_; ++ci) {
                if (channels_[ci].fifo_size == 0 ||
                    hops_[static_cast<std::size_t>(front(ci).hop)] >= 0)
                    continue;
                eject(ci, now);
                moved = true;
            }
        } else {
            eject_.for_each([&](std::size_t ci) {
                eject(ci, now);
                moved = true;
            });
        }

        // 4. Switch allocation.
        if (reference_) {
            for (std::size_t ci = 0; ci < n_channels_; ++ci) moved |= allocate_scan(ci, now);
        } else {
            ready_.for_each([&](std::size_t ci) {
                allocate_ready(ci, now);
                moved = true;
            });
            for (const auto s : reenroll_)
                if (!empty(static_cast<std::size_t>(s))) enroll(static_cast<std::size_t>(s));
            reenroll_.clear();
            // A release stands for the reference forwarding the tail this
            // cycle, so it counts as movement.
            assert(releases_.empty() || releases_.front().cycle >= now);
            while (!releases_.empty() && releases_.front().cycle == now) {
                std::pop_heap(releases_.begin(), releases_.end(), later);
                const auto ci = static_cast<std::size_t>(releases_.back().channel);
                releases_.pop_back();
                release(ci, now);
                moved = true;
            }
        }
        return moved;
    }

    // --- FIFO primitives shared by both cores.

    [[nodiscard]] bool empty(const std::size_t s) const {
        if (s < n_channels_) return channels_[s].fifo_size == 0;
        const auto& q = inj_[s - n_channels_];
        return q.front == q.end;
    }

    /// The front flit of a non-empty source; an injection FIFO's is made
    /// from its front packet and cursor.
    [[nodiscard]] Flit front(const std::size_t s) const {
        if (s < n_channels_) return ring_[s * ring_cap_ + channels_[s].fifo_front];
        const auto& q = inj_[s - n_channels_];
        const auto pid = inj_order_[static_cast<std::size_t>(q.front)];
        const Packet& p = packets_[static_cast<std::size_t>(pid)];
        return {pid, p.first_hop, q.sent == 0, q.sent == p.flits - 1};
    }

    Flit pop(const std::size_t s) {
        const Flit f = front(s);
        if (s < n_channels_) {
            Channel& c = channels_[s];
            c.fifo_front = (c.fifo_front + 1) & (ring_cap_ - 1);
            --c.fifo_size;
        } else {
            auto& q = inj_[s - n_channels_];
            if (++q.sent == packets_[static_cast<std::size_t>(f.packet)].flits) {
                q.sent = 0;
                ++q.front;
            }
        }
        return f;
    }

    /// Output ci regains a buffer slot downstream.
    void return_credit(const std::size_t ci) {
        ++channels_[ci].credits;
        update_ready(ci);
    }

    /// Ejects the front flit of channel `ci`, which sits at its
    /// destination, returning its buffer slot as a credit upstream.
    void eject(const std::size_t ci, const std::int64_t now) {
        const Flit f = pop(ci);
        if (f.tail) {
            ++delivered_packets_;
            res_.packet_latency.add(static_cast<double>(
                now - packets_[static_cast<std::size_t>(f.packet)].inject_cycle));
        }
        ++res_.flits;
        --in_flight_flits_;
        return_credit(ci);
        if (!reference_) {
            eject_.erase(ci);
            if (channels_[ci].fifo_size > 0) enroll(ci);
        }
    }

    /// Moves the front flit of source `s` through output `ci`: it leaves
    /// its FIFO (whose slot returns upstream as a credit), takes one of the
    /// output's credits and enters the output's link pipe.
    Flit forward(const std::size_t ci, const std::size_t s, const std::int64_t now) {
        Flit f = pop(s);
        if (s < n_channels_) return_credit(s);
        Channel& out = channels_[ci];
        --out.credits;
        ++f.hop;
        if (hops_[static_cast<std::size_t>(f.hop)] >= 0) ++out.transit;
        wheel_[static_cast<std::size_t>(now + out.delay) & wheel_mask_].push_back(
            {static_cast<std::int32_t>(ci), f});
        ++out.flits;
        ++res_.flit_hops;
        return f;
    }

    // --- Reference core: every output scans its router's sources.

    /// For one output channel pick one flit: wormhole continuation for
    /// locked outputs, round-robin arbitration over requesting head flits
    /// otherwise. A source that gave a flit this cycle is skipped, so a
    /// source gives at most one flit per cycle across all outputs.
    bool allocate_scan(const std::size_t ci, const std::int64_t now) {
        ++res_.arbitrations;
        Channel& out = channels_[ci];
        if (out.credits <= 0) return false;
        const std::int32_t* srcs = &sources_[out.first_source];
        const std::size_t n_sources = out.n_sources;

        // Source s requests this output: its head flit does, and it has not
        // given a flit this cycle.
        const auto requests = [&](std::size_t s) {
            return !empty(s) && last_gave_[s] != now &&
                   hops_[static_cast<std::size_t>(front(s).hop)] ==
                       static_cast<std::int32_t>(ci);
        };

        std::size_t chosen = n_sources;  // index into srcs
        if (out.lock >= 0) {
            // Wormhole continuation: only the owner packet may use the
            // output; find the source whose head flit belongs to it.
            for (std::size_t k = 0; k < n_sources; ++k) {
                const auto s = static_cast<std::size_t>(srcs[k]);
                if (!requests(s) || front(s).packet != out.lock) continue;
                chosen = k;
                break;
            }
        } else {
            // New allocation: round-robin over head flits requesting us.
            for (std::size_t j = 0; j < n_sources; ++j) {
                const std::size_t k = (out.rr + j) % n_sources;
                const auto s = static_cast<std::size_t>(srcs[k]);
                if (!requests(s) || !front(s).head) continue;
                chosen = k;
                out.rr = static_cast<std::uint32_t>(k + 1);
                break;
            }
        }
        if (chosen == n_sources) return false;

        const auto s = static_cast<std::size_t>(srcs[chosen]);
        last_gave_[s] = now;
        const Flit f = forward(ci, s, now);
        out.lock = f.tail ? -1 : f.packet;
        return true;
    }

    // --- Activity core: request masks, the ready set and the eject set.

    /// Enrolls the head flit of non-empty source `s` once: in the eject set
    /// when it sits at its destination, else as the source's bit in the
    /// request mask of the output it requests.
    void enroll(const std::size_t s) {
        if (reference_) return;
        const Flit f = front(s);
        const auto out = hops_[static_cast<std::size_t>(f.hop)];
        if (out < 0) {
            eject_.insert(s);
            return;
        }
        channels_[static_cast<std::size_t>(out)].req |= std::uint64_t{1} << position(s);
        update_ready(static_cast<std::size_t>(out));
    }

    /// Source s's position at its router: 0 for an injection FIFO.
    [[nodiscard]] std::uint32_t position(const std::size_t s) const {
        return s < n_channels_ ? channels_[s].position : 0;
    }

    /// Recomputes output ci's ready-set membership after a credit, lock or
    /// request change: a credit downstream, and an enrolled owner (locked)
    /// or any enrolled head (free).
    void update_ready(const std::size_t ci) {
        if (reference_) return;
        const Channel& c = channels_[ci];
        const bool ready =
            c.credits > 0 && (c.lock >= 0 ? ((c.req >> c.lock) & 1) != 0 : c.req != 0);
        if (ready)
            ready_.insert(ci);
        else
            ready_.erase(ci);
    }

    /// Output ci is ready, so it moves a flit: the lock owner's, or the
    /// first enrolled head at or after the round-robin pointer.
    void allocate_ready(const std::size_t ci, const std::int64_t now) {
        ++res_.arbitrations;
        Channel& out = channels_[ci];
        std::uint32_t k = 0;
        if (out.lock >= 0) {
            k = static_cast<std::uint32_t>(out.lock);
        } else {
            const std::uint64_t from_rr =
                out.rr < 64 ? out.req & (~std::uint64_t{0} << out.rr) : 0;
            k = static_cast<std::uint32_t>(std::countr_zero(from_rr != 0 ? from_rr : out.req));
            out.rr = k + 1;
        }
        out.req &= ~(std::uint64_t{1} << k);
        // A free output's position-0 source is its router's injection FIFO,
        // and what it grants is the head of the front packet.
        if (k == 0 && out.lock < 0 && start_train(ci, now)) return;
        const auto s = sources_[out.first_source + k];
        const Flit f = forward(ci, static_cast<std::size_t>(s), now);
        out.lock = f.tail ? -1 : static_cast<std::int32_t>(k);
        update_ready(ci);
        reenroll_.push_back(s);  // its new head waits until allocation ends
    }

    // --- Activity core: single-hop trains.

    /// Output ci, free, grants the head of packet P (L flits) from its
    /// router's injection FIFO at cycle `now`. P streams as a train when its
    /// path is this one hop, ci's FIFO is empty with only ejecting flits on
    /// its wire, the buffer is at least the delay deep, L >= 2 and the tail
    /// lands before max_cycles (README obligation 7 says why each is
    /// needed): the reference then forwards flit j at now + j and ejects it
    /// at now + j + delay. All L hops are booked here, and the first
    /// L - min(L, delay) flits, which eject while ci is locked, are
    /// delivered; ci stays locked to position 0 with nothing enrolled, and P
    /// stays in front of its FIFO until release(). False, changing nothing,
    /// when a condition fails.
    bool start_train(const std::size_t ci, const std::int64_t now) {
        Channel& c = channels_[ci];
        const auto& q = inj_[static_cast<std::size_t>(c.from)];
        const Packet& p =
            packets_[static_cast<std::size_t>(inj_order_[static_cast<std::size_t>(q.front)])];
        const std::int64_t tail_leaves = now + p.flits - 1;
        if (p.flits < 2 || hops_[static_cast<std::size_t>(p.first_hop) + 1] >= 0 ||
            c.fifo_size != 0 || c.transit != 0 || cfg_.input_buffer_flits < c.delay ||
            tail_leaves + c.delay >= cfg_.max_cycles)
            return false;
        assert(q.sent == 0 && hops_[static_cast<std::size_t>(p.first_hop)] ==
                                  static_cast<std::int32_t>(ci));
        const std::int32_t early = p.flits - std::min(p.flits, c.delay);
        c.lock = 0;
        c.credits -= p.flits - early;
        c.flits += p.flits;
        update_ready(ci);
        res_.flit_hops += p.flits;
        res_.arbitrations += p.flits - 1;  // the caller counted the head's
        res_.flits += early;
        in_flight_flits_ -= early;
        ++res_.trains;
        train_flits_ += early;
        releases_.push_back({tail_leaves, static_cast<std::int32_t>(ci)});
        std::push_heap(releases_.begin(), releases_.end(), later);
        return true;
    }

    /// The train on output ci releases after the allocation phase of the
    /// cycle its tail leaves: its last min(L, delay) flits, tail included,
    /// go on the wheel at their landing cycles (all within one delay, so
    /// inside one lap), ci is freed, and the injection FIFO pops P and
    /// enrolls its next packet, as a drained source does.
    void release(const std::size_t ci, const std::int64_t now) {
        Channel& c = channels_[ci];
        auto& q = inj_[static_cast<std::size_t>(c.from)];
        const auto pid = inj_order_[static_cast<std::size_t>(q.front)];
        const Packet& p = packets_[static_cast<std::size_t>(pid)];
        const std::int64_t head_left = now - (p.flits - 1);
        for (std::int32_t j = p.flits - std::min(p.flits, c.delay); j < p.flits; ++j)
            wheel_[static_cast<std::size_t>(head_left + j + c.delay) & wheel_mask_].push_back(
                {static_cast<std::int32_t>(ci),
                 Flit{pid, p.first_hop + 1, j == 0, j == p.flits - 1}});
        c.lock = -1;
        update_ready(ci);
        if (++q.front != q.end) enroll(n_channels_ + static_cast<std::size_t>(c.from));
    }

    /// Heap order of releases_: the earliest cycle on top.
    static bool later(const Release& a, const Release& b) { return a.cycle > b.cycle; }

    [[nodiscard]] std::int64_t next_release() const {
        return releases_.empty() ? kNever : releases_.front().cycle;
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
            if (!wheel_[static_cast<std::size_t>(t) & wheel_mask_].empty()) return t;
        return kNever;
    }

    /// End-of-run conservation check of a completed run, O(channels +
    /// nodes) and on in every build type: a drained network holds no flit
    /// in any FIFO or on any wire, every credit is home, no wormhole lock
    /// is held, no request is enrolled, no flit is counted in transit, no
    /// train release is pending, the ready and eject sets are empty, and
    /// the flit ledgers balance. A violation is an engine bug; throwing
    /// keeps it out of every figure priced from this run.
    void check_drained() const {
        const auto fail = [](const std::string& what) {
            throw std::logic_error("noc::Simulator end-of-run check: " + what);
        };
        const auto channel = [&](std::size_t ci) {
            const Channel& c = channels_[ci];
            return "channel " + std::to_string(ci) + " (" + std::to_string(c.from) + "->" +
                   std::to_string(c.to) + ")";
        };
        for (std::size_t ci = 0; ci < n_channels_; ++ci) {
            const Channel& c = channels_[ci];
            if (c.fifo_size != 0)
                fail(channel(ci) + " input FIFO still holds " + std::to_string(c.fifo_size) +
                     " flit(s)");
            if (c.credits != cfg_.input_buffer_flits)
                fail(channel(ci) + " holds " + std::to_string(c.credits) +
                     " credits, expected " + std::to_string(cfg_.input_buffer_flits));
            if (c.lock >= 0)
                fail(channel(ci) + " wormhole lock still held (owner " +
                     std::to_string(c.lock) + ")");
            if (c.req != 0) fail(channel(ci) + " still has an enrolled request");
            if (c.transit != 0)
                fail(channel(ci) + " still counts " + std::to_string(c.transit) +
                     " flit(s) in transit");
        }
        for (std::size_t n = 0; n < inj_.size(); ++n)
            if (inj_[n].front != inj_[n].end)
                fail("node " + std::to_string(n) + " injection FIFO still holds " +
                     std::to_string(inj_[n].end - inj_[n].front) + " packet(s)");
        for (const auto& slot : wheel_)
            if (!slot.empty())
                fail(channel(static_cast<std::size_t>(slot.front().channel)) +
                     " still carries a flit on its link");
        if (!releases_.empty())
            fail(channel(static_cast<std::size_t>(releases_.front().channel)) +
                 " still has a train to release");
        if (!ready_.empty()) fail("the ready set is not empty");
        if (!eject_.empty()) fail("the eject set is not empty");
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
    /// Debug cross-check of the no-op proof on a quiet cycle: both sets are
    /// empty, and every waiting head flit is enrolled on its output and
    /// blocked on a zero credit or on a wormhole lock owned by another
    /// source (a body flit's output lock is always its own source's, and
    /// ejectable flits cannot wait — the ejection phase drains them
    /// unconditionally). A streaming injection FIFO is skipped: its front
    /// packet is booked until its release.
    void verify_quiet() const {
        assert(ready_.empty() && eject_.empty());
        std::vector<bool> streaming(inj_.size(), false);
        for (const Release& r : releases_) {
            const Channel& c = channels_[static_cast<std::size_t>(r.channel)];
            streaming[static_cast<std::size_t>(c.from)] = true;
        }
        for (std::size_t s = 0; s < n_channels_ + inj_.size(); ++s) {
            if (empty(s) || (s >= n_channels_ && streaming[s - n_channels_])) continue;
            const auto out = hops_[static_cast<std::size_t>(front(s).hop)];
            assert(out >= 0 && "would have ejected");
            const Channel& c = channels_[static_cast<std::size_t>(out)];
            const auto pos = static_cast<std::int32_t>(position(s));
            assert(((c.req >> pos) & 1) != 0 && "head not enrolled");
            assert(c.credits <= 0 || (c.lock >= 0 && c.lock != pos));
        }
    }
#endif

    const SimConfig& cfg_;
    const bool reference_;  ///< Visit every channel (kReference).
    const std::size_t n_channels_;

    std::vector<Channel> channels_;
    /// Every node's switch sources, node by node: its injection FIFO, then
    /// its in-channels ascending. A source's position is its index within
    /// its node's run (see Channel::first_source).
    std::vector<std::int32_t> sources_;
    std::vector<Flit> ring_;      ///< Channel ci's FIFO: slots [ci, ci + 1) * ring_cap_.
    std::uint32_t ring_cap_ = 1;  ///< A power of two.
    std::vector<InjectionQueue> inj_;      ///< Per node.
    std::vector<std::int32_t> inj_order_;  ///< Packet ids by node, in injection order.
    std::vector<std::vector<Arrival>> wheel_;  ///< Slot t & wheel_mask_: landings at t.
    std::size_t wheel_mask_ = 0;               ///< Slot count - 1 (a power of two).

    std::vector<std::int32_t> hops_;  ///< Channel path per demand, each ended by -1.
    std::vector<Packet> packets_;
    std::vector<std::int32_t> due_;  ///< Packet ids by inject cycle.
    std::size_t next_due_ = 0;

    std::vector<std::int64_t> last_gave_;  ///< Reference: cycle a source last gave a flit.
    BitSet ready_;                         ///< Activity: outputs that move a flit.
    BitSet eject_;                         ///< Activity: channels whose head ejects.
    std::vector<std::int32_t> reenroll_;   ///< Activity: sources that gave this cycle.
    std::vector<Release> releases_;        ///< Activity: pending trains, a min-heap.

    SimResult res_;
    std::int64_t total_packets_ = 0;
    std::int64_t delivered_packets_ = 0;
    std::int64_t in_flight_flits_ = 0;
    std::int64_t injected_flits_ = 0;
    std::int64_t train_flits_ = 0;  ///< Train flits delivered without the wheel.
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

void validate_sim_config(const SimConfig& cfg) {
    const auto at_least = [](const char* field, std::int64_t v, std::int64_t min) {
        if (v < min)
            throw std::invalid_argument(std::string("sim config: ") + field + " must be >= " +
                                        std::to_string(min) + ", got " + std::to_string(v));
    };
    at_least("flit_bytes", cfg.flit_bytes, 1);
    at_least("max_packet_flits", cfg.max_packet_flits, 1);
    at_least("input_buffer_flits", cfg.input_buffer_flits, 1);
    at_least("router_delay_cycles", cfg.router_delay_cycles, 0);
    if (!std::isfinite(cfg.mm_per_cycle) || cfg.mm_per_cycle <= 0.0)
        throw std::invalid_argument("sim config: mm_per_cycle must be finite and > 0, got " +
                                    std::to_string(cfg.mm_per_cycle));
}

Simulator::Simulator(const topo::Topology& topo, const RouteTable& routes, SimConfig cfg)
    : topo_(topo), routes_(routes), cfg_(cfg) {
    if (topo.node_count() != routes.node_count())
        throw std::invalid_argument("route table built for a different topology");
    validate_sim_config(cfg_);
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
    std::optional<Engine> engine;
    {
        const obs::Span span("sim.build", "noc");
        engine.emplace(topo_, routes_, cfg_, demands_);
    }
    demands_.clear();
    const obs::Span span("sim.run", "noc");
    return engine->run();
}

}  // namespace floretsim::noc
