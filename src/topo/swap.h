#pragma once

#include "src/topo/topology.h"
#include "src/util/rng.h"

namespace floretsim::topo {

/// Knobs for the SWAP-style small-world NoI synthesis.
struct SwapConfig {
    /// Extra shortcut links beyond the connected backbone, as a fraction of
    /// the node count (SWAP uses markedly fewer links than a mesh).
    double extra_link_frac = 0.35;
    /// Router port budget (SWAP routers are 2-3 ported).
    std::int32_t max_degree = 3;
    /// Power-law exponent for shortcut length sampling P(l) ~ l^-alpha
    /// (small-world construction a la Watts-Strogatz/Kleinberg; the paper
    /// notes SWAP carries several 4-5 hop links).
    double alpha = 1.9;
    /// Simulated-annealing refinement iterations (0 disables refinement).
    std::int32_t sa_iters = 400;
};

/// SWAP (Sharma et al., TCAD'22): an application-specific, irregular,
/// small-world NoI synthesized at design time for pipelined DNN traffic.
/// We reproduce it as: a serpentine backbone (degree <= 2) plus power-law
/// sampled shortcut links under a 3-port budget, refined with simulated
/// annealing. Its objective is the mean hop count between consecutive
/// chiplets (pipeline traffic) plus 0.2 x the mean all-pairs hop count;
/// the backbone links every consecutive pair, so the pipeline term is
/// always 1 and the anneal minimizes only the mean all-pairs hops.
/// Produces the paper's Fig. 2 profile: 2-3 port routers, fewer links than
/// mesh, a few 4-5 hop long links.
[[nodiscard]] Topology make_swap(std::int32_t width, std::int32_t height,
                                 util::Rng& rng, const SwapConfig& cfg = {},
                                 double pitch_mm = 4.0);

}  // namespace floretsim::topo
