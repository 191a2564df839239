#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "src/noc/routing.h"
#include "src/topo/topology.h"
#include "src/util/stats.h"

namespace floretsim::noc {

/// Which cycle engine drives the simulation. Both cores produce
/// bit-identical SimResults (enforced by tests/test_noc_event_horizon.cpp);
/// they differ only in how many cycles and ports they actually visit.
enum class SimCore : std::uint8_t {
    /// Ground truth: step every cycle while traffic is in flight and visit
    /// every channel in the eject and allocate phases (idle gaps with
    /// nothing in flight are still fast-forwarded — trivially sound — or
    /// sparse schedules would take minutes of wall clock).
    kReference,
    /// Activity-driven: one global clock, but each stepped cycle visits
    /// only the channels whose head flit ejects and the outputs that move a
    /// flit (those with a credit and a head flit the arbiter may grant),
    /// both in the reference core's ascending channel order. After a cycle that
    /// ejects and allocates nothing, every head flit is blocked on a
    /// zero-credit output or on a wormhole lock held by another packet, so
    /// the clock jumps straight to min(next link arrival, next injection).
    /// See README "NoC simulator cores" for the proof obligations.
    kActivity,
};

[[nodiscard]] const char* sim_core_name(SimCore c);

/// Parses a core name as spelled on CLIs and in FLORETSIM_SIM_CORE:
/// "reference" or "activity". std::nullopt on anything else.
[[nodiscard]] std::optional<SimCore> sim_core_from_name(std::string_view name);

/// The core a run configured with `configured` will actually use, after
/// the process-wide FLORETSIM_SIM_CORE override (parsed once; CLI --core
/// flags are implemented by setting that variable before first use).
/// Throws std::invalid_argument naming the accepted values when the
/// variable is set to anything else.
[[nodiscard]] SimCore resolved_sim_core(SimCore configured);

/// Simulator knobs. Defaults model a 64-bit inter-chiplet channel at
/// 1 GHz with 2-cycle routers — SIAM/BookSim-class assumptions.
struct SimConfig {
    std::int32_t flit_bytes = 8;           ///< Payload per flit.
    std::int32_t max_packet_flits = 16;    ///< Long transfers are segmented.
    std::int32_t input_buffer_flits = 8;   ///< Per-input-port FIFO depth.
    std::int32_t router_delay_cycles = 2;  ///< Pipeline latency per hop.
    double mm_per_cycle = 4.0;             ///< Interposer wire speed per cycle.
    std::int64_t max_cycles = 50'000'000;  ///< Hard stop (sim reports !completed).
    /// Injection rate while scheduling packets, in flits/node/cycle.
    double injection_rate = 0.05;
    /// Cycle engine, an in-process choice for tests and engine A/Bs:
    /// specs do not carry it (scenario::to_json(SimConfig) omits it), so
    /// a run's core is the process-wide FLORETSIM_SIM_CORE override
    /// ("reference" / "activity") or this default.
    SimCore core = SimCore::kActivity;

    /// Field-wise equality: the scenario layer's JSON round-trip contract
    /// (scenario::sim_config_from_json(to_json(x)) == x for the default
    /// core).
    [[nodiscard]] bool operator==(const SimConfig&) const = default;
};

/// Rejects a config no run can use: flit_bytes, max_packet_flits and
/// input_buffer_flits below 1, a negative router_delay_cycles, or an
/// mm_per_cycle that is not finite and positive. Throws
/// std::invalid_argument naming the field. The Simulator constructor and
/// scenario::sim_config_from_json both call it.
void validate_sim_config(const SimConfig& cfg);

/// A point-to-point traffic demand (bytes to move src -> dst).
struct Demand {
    topo::NodeId src = -1;
    topo::NodeId dst = -1;
    std::int64_t bytes = 0;
};

/// Outcome of one simulation run.
struct SimResult {
    std::int64_t cycles = 0;             ///< Makespan: drain time of all traffic.
    std::int64_t packets = 0;            ///< Packets delivered.
    std::int64_t flits = 0;              ///< Flits delivered.
    std::int64_t flit_hops = 0;          ///< Total link traversals by flits.
    bool completed = false;              ///< False if max_cycles was hit.
    util::RunningStats packet_latency;   ///< Inject -> tail-eject, cycles.
    std::vector<std::int64_t> router_flits;  ///< Per-node flit traversals.
    std::vector<std::int64_t> link_flits;    ///< Per-link flit traversals.

    /// Engine-work statistics. These describe how the selected core earned
    /// the result, not the result itself: they legitimately differ between
    /// SimCore settings and are excluded from the bit-identicality
    /// contract the differential tests enforce.
    std::int64_t cycles_stepped = 0;  ///< Cycles actually executed.
    std::int64_t cycles_skipped = 0;  ///< Cycles proven no-op and jumped over.
    std::int64_t horizon_jumps = 0;   ///< Fast-forward events taken.
    /// Outputs visited by switch allocation: every channel on every stepped
    /// cycle for the reference core; for kActivity only the outputs that
    /// move a flit, so it equals flit_hops (a single-hop train counts its L
    /// flits at the grant).
    std::int64_t arbitrations = 0;
    /// kActivity: packets streamed as single-hop trains (README "NoC
    /// simulator cores", obligation 7). Always 0 on kReference.
    std::int64_t trains = 0;
};

/// Cycle-driven wormhole network simulator.
///
/// Packets are source-routed along RouteTable paths; each router output is
/// a round-robin arbiter with per-packet wormhole locking; links are
/// pipelined with a delay derived from their physical length; buffer space
/// is managed with credits, so flits never overrun a FIFO. With an
/// up*/down* route table the simulation is deadlock-free by construction.
class Simulator {
public:
    /// Throws std::invalid_argument when `routes` was built for another
    /// topology or validate_sim_config rejects `cfg`.
    Simulator(const topo::Topology& topo, const RouteTable& routes, SimConfig cfg);

    /// Queues a traffic demand (split into packets at run()).
    void add_demand(const Demand& d);
    void add_demands(const std::vector<Demand>& ds);

    /// Runs until all queued traffic drains (or cfg.max_cycles). The
    /// demand list is consumed; the simulator can be reused by adding new
    /// demands afterwards. A completed run is checked for conservation in
    /// every build type (empty FIFOs and links, every credit home, no
    /// wormhole lock held or request enrolled, flit ledgers in balance); a
    /// violation is an engine bug and throws std::logic_error naming the
    /// channel or node.
    /// A router with more than 63 in-channels throws std::invalid_argument
    /// naming the node: its switch sources must fit one 64-bit mask.
    [[nodiscard]] SimResult run();

private:
    const topo::Topology& topo_;
    const RouteTable& routes_;
    SimConfig cfg_;
    std::vector<Demand> demands_;
};

}  // namespace floretsim::noc
