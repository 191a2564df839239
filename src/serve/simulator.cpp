#include "src/serve/simulator.h"

#include <span>

#include "src/serve/cluster.h"

namespace floretsim::serve {

const char* admission_policy_name(AdmissionPolicy p) {
    switch (p) {
        case AdmissionPolicy::kFifo: return "FIFO";
        case AdmissionPolicy::kEarliestDeadline: return "EDF";
        case AdmissionPolicy::kRejectOnFull: return "Reject-on-full";
        case AdmissionPolicy::kEdfEvict: return "EDF-evict";
    }
    return "?";
}

ServeConfig default_serve_config() {
    ServeConfig cfg;
    // The experiment eval defaults (1/64 sampling) carry over: the epoch
    // short-circuit and the fabric's NoI memo absorb the per-round NoI
    // cost, so serving stays directly comparable with the batch Table II
    // numbers.
    cfg.eval = core::experiment::default_eval_config();
    return cfg;
}

ServeStats serve_requests(core::experiment::BuiltArch& arch,
                          const ServeConfig& cfg) {
    // A single fabric behind a trivial frontend: the cluster event loop
    // accumulates in exactly the legacy single-fabric order, so this is
    // bit-identical to the pre-cluster scheduler (pinned by the
    // differential goldens in tests/test_serve.cpp).
    return serve_cluster(std::span(&arch, 1), cfg, BalancePolicy::kLeastLoaded)
        .serve;
}

}  // namespace floretsim::serve
