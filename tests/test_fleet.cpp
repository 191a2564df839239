/// Unit and fault-injection pins for the persistent worker fleet
/// (src/fleet/): the framed NDJSON protocol (strict both directions,
/// byte-stable row lines), the serve_worker loop, and the Coordinator end
/// to end — deterministic placement and fabric affinity, lease dispatch,
/// dead-worker recovery (SIGKILL mid-lease -> restart + requeue,
/// bit-identical report), bounded retry, and RAII scratch /
/// child-process cleanup.
///
/// This binary is its own fleet worker: `test_fleet --fleet-worker`
/// runs serve_worker over stdin/stdout (see main below), so the
/// Coordinator tests spawn real subprocesses without depending on the
/// floretsim_run driver binary. The full-registry differential against
/// the driver is the fleet_parity ctest (scripts/fleet_parity.sh).

#include "src/fleet/coordinator.h"
#include "src/fleet/pool.h"
#include "src/fleet/protocol.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/sweep.h"
#include "src/scenario/spec_json.h"
#include "src/util/json.h"
#include "src/workload/tables.h"

/// Absolute path of this test binary, captured in main — the worker
/// executable the Coordinator tests spawn.
static std::string g_self_exe;  // NOLINT

namespace floretsim::fleet {
namespace {

namespace experiment = core::experiment;
using experiment::Arch;

/// 2 archs x 1 grid x n_mixes points, sized to finish fast. Two fabric
/// groups (one per arch), so a 2-worker fleet splits cleanly.
core::SweepSpec fleet_spec(std::size_t n_mixes) {
    core::SweepSpec spec;
    spec.archs = {Arch::kSiamMesh, Arch::kFloret};
    spec.grids = {{6, 6}};
    const auto& mixes = workload::table2();
    spec.mixes.assign(mixes.begin(),
                      mixes.begin() + std::min(n_mixes, mixes.size()));
    auto cfg = experiment::default_eval_config();
    cfg.traffic_scale = 1.0 / 512.0;  // keep tests quick
    spec.evals = {cfg};
    spec.greedy_max_gap = 2;
    return spec;
}

/// The in-process reference rows for fleet_spec(n_mixes), memoized: the
/// bit-identity target every fleet differential compares against.
const std::vector<core::SweepRow>& expected_rows(std::size_t n_mixes) {
    static std::map<std::size_t, std::vector<core::SweepRow>> cache;
    auto it = cache.find(n_mixes);
    if (it == cache.end()) {
        core::SweepEngine engine(1);
        it = cache.emplace(n_mixes, engine.run(fleet_spec(n_mixes)).rows)
                 .first;
    }
    return it->second;
}

void expect_rows_bit_identical(const std::vector<core::SweepRow>& got,
                               const std::vector<core::SweepRow>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].point, want[i].point) << "point " << i;
        // `seconds` is wall-clock and deliberately excluded.
        EXPECT_EQ(got[i].result, want[i].result) << "point " << i;
    }
}

/// Self-deleting scratch directory.
struct TempDir {
    std::string path;
    TempDir() {
        std::string templ =
            (std::filesystem::temp_directory_path() / "floretsim-fleettest-XXXXXX")
                .string();
        if (!mkdtemp(templ.data())) throw std::runtime_error("mkdtemp failed");
        path = templ;
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
};

/// Clears the fleet fault-injection env vars around every test, so one
/// test's injected fault can never leak into another (or into a later
/// suite run in the same environment).
class FleetEnv : public ::testing::Test {
protected:
    void SetUp() override { clear(); }
    void TearDown() override { clear(); }
    static void clear() {
        unsetenv("FLORETSIM_FLEET_KILL");
        unsetenv("FLORETSIM_FLEET_PERR");
    }
};

FleetOptions self_fleet_options(std::int32_t n_workers) {
    FleetOptions opt;
    opt.worker_exe = g_self_exe;
    opt.worker_args = {"--fleet-worker"};
    opt.n_workers = n_workers;
    return opt;
}

/// A synthetic row whose identity is readable back out of total_cycles
/// (no dynamic run needed — expand() alone is cheap).
core::SweepRow tagged_row(std::size_t i) {
    core::SweepRow row;
    row.point = fleet_spec(1).expand().front();
    row.result.total_cycles = 1000.0 + static_cast<double>(i);
    return row;
}

// --------------------------------------------------------- frame round trips

TEST(FleetProtocol, WorkerBoundFramesRoundTrip) {
    InitFrame init;
    init.worker = 2;
    init.n_workers = 4;
    init.gen = 3;
    const WorkerBound got_init = worker_bound_from_line(init_line(init));
    ASSERT_TRUE(got_init.init.has_value());
    EXPECT_EQ(*got_init.init, init);

    SweepFrame sweep;
    sweep.id = 17;
    sweep.points_file = "/tmp/points with spaces.json";
    sweep.n_points = 40;
    const WorkerBound got_sweep = worker_bound_from_line(sweep_line(sweep));
    ASSERT_TRUE(got_sweep.sweep.has_value());
    EXPECT_EQ(*got_sweep.sweep, sweep);

    LeaseFrame lease;
    lease.sweep = 17;
    lease.indices = {7, 0, 39};
    const WorkerBound got_lease = worker_bound_from_line(lease_line(lease));
    ASSERT_TRUE(got_lease.lease.has_value());
    EXPECT_EQ(*got_lease.lease, lease);

    const WorkerBound got_quit = worker_bound_from_line(quit_line());
    EXPECT_TRUE(got_quit.quit);
    EXPECT_FALSE(got_quit.init || got_quit.sweep || got_quit.lease);
}

TEST(FleetProtocol, CoordinatorBoundFramesRoundTrip) {
    ReadyFrame ready;
    ready.worker = 1;
    ready.gen = 2;
    ready.pid = 4242;
    const CoordinatorBound got_ready =
        coordinator_bound_from_line(ready_line(ready));
    ASSERT_TRUE(got_ready.ready.has_value());
    EXPECT_EQ(*got_ready.ready, ready);

    DoneFrame done;
    done.sweep = 31;
    done.fabric_hits = 100;
    done.fabric_misses = 4;
    const CoordinatorBound got_done =
        coordinator_bound_from_line(done_line(done));
    ASSERT_TRUE(got_done.done.has_value());
    EXPECT_EQ(*got_done.done, done);

    PointErrorFrame perr;
    perr.sweep = 9;
    perr.index = 3;
    perr.what = "no such workload \"DNN99\"";
    const CoordinatorBound got_perr =
        coordinator_bound_from_line(perr_line(perr));
    ASSERT_TRUE(got_perr.perr.has_value());
    EXPECT_EQ(*got_perr.perr, perr);

    FleetRow row;
    row.sweep = 9;
    row.index = 3;
    row.row.point = fleet_spec(1).expand().front();
    row.row.result.total_cycles = 123456.5;
    row.row.result.flit_hops = 99;
    row.row.result.all_completed = false;
    row.row.seconds = 0.125;
    const std::string row_text = fleet_row_line(row);
    EXPECT_EQ(row_text.find('\n'), std::string::npos)
        << "NDJSON lines are one line";
    const CoordinatorBound got_row = coordinator_bound_from_line(row_text);
    ASSERT_TRUE(got_row.row.has_value());
    EXPECT_EQ(got_row.row->sweep, 9);
    EXPECT_EQ(got_row.row->index, 3u);
    EXPECT_EQ(got_row.row->row, row.row);
}

TEST(FleetProtocol, RowLineIsByteStable) {
    // The frame a worker streams per finished point: pinned byte for byte.
    FleetRow row;
    row.sweep = 9;
    row.index = 17;
    row.row = tagged_row(17);
    EXPECT_EQ(fleet_row_line(row),
              "{\"sweep\":9,\"index\":17,\"row\":" +
                  util::json_serialize_compact(scenario::to_json(row.row)) + "}");
}

TEST(FleetProtocol, PointsFromTextRejectsEmptyAndMalformed) {
    EXPECT_THROW((void)points_from_text("[]", "t"), std::invalid_argument);
    EXPECT_THROW((void)points_from_text("", "t"), std::invalid_argument);
    EXPECT_THROW((void)points_from_text("{}", "t"), std::invalid_argument);
    EXPECT_THROW((void)points_from_text("[{\"arch\": \"torus\"}]", "t"),
                 std::invalid_argument);
    const auto points = points_from_text(
        util::json_serialize(scenario::to_json(fleet_spec(1).expand())), "t");
    EXPECT_EQ(points, fleet_spec(1).expand());
}

TEST(FleetProtocol, ClampWorkerThreads) {
    std::ostringstream err;
    EXPECT_EQ(clamp_worker_threads(0, err), 0);  // hardware default
    EXPECT_EQ(clamp_worker_threads(4, err), 4);  // in range
    EXPECT_TRUE(err.str().empty());
    EXPECT_EQ(clamp_worker_threads(100000, err), kMaxWorkerThreads);
    EXPECT_NE(err.str().find("clamping"), std::string::npos);
    EXPECT_THROW((void)clamp_worker_threads(-1, err), std::invalid_argument);
}

// ------------------------------------------------------ adversarial corpus

TEST(FleetProtocol, WorkerBoundRejectsMalformedFrames) {
    for (const char* bad : {
             "",                                    // empty
             "{",                                   // truncated JSON
             "[1, 2]",                              // not an object
             "{}",                                  // no envelope key
             "null",                                // not an object
             "{\"init\": {\"worker\": 0, \"n_workers\": 1, \"gen\": 0}, "
             "\"quit\": {}}",                       // two envelope keys
             "{\"bogus\": {}}",                     // unknown frame
             "{\"init\": 3}",                       // payload not an object
             "{\"init\": {\"worker\": 0, \"n_workers\": 1}}",  // missing gen
             "{\"init\": {\"worker\": 0, \"n_workers\": 1, \"gen\": 0, "
             "\"extra\": 1}}",                      // unknown key
             "{\"init\": {\"worker\": 1, \"n_workers\": 1, \"gen\": 0}}",
             "{\"init\": {\"worker\": -1, \"n_workers\": 2, \"gen\": 0}}",
             "{\"init\": {\"worker\": 0, \"n_workers\": 0, \"gen\": 0}}",
             "{\"init\": {\"worker\": 0, \"n_workers\": 1, \"gen\": -1}}",
             "{\"sweep\": {\"id\": -1, \"points_file\": \"p\", "
             "\"n_points\": 1}}",                   // negative sweep id
             "{\"sweep\": {\"id\": 0, \"points_file\": \"\", "
             "\"n_points\": 1}}",                   // empty points file
             "{\"sweep\": {\"id\": 0, \"points_file\": \"p\", "
             "\"n_points\": 0}}",                   // zero points
             "{\"sweep\": {\"id\": 0, \"points_file\": \"p\", "
             "\"n_points\": -4}}",                  // negative count
             "{\"lease\": {\"sweep\": 0, \"indices\": []}}",
             "{\"lease\": {\"sweep\": -2, \"indices\": [0]}}",
             "{\"lease\": {\"sweep\": 0, \"indices\": 3}}",
             "{\"lease\": {\"sweep\": 0, \"indices\": [-1]}}",
             "{\"lease\": {\"indices\": [0]}}",  // missing sweep
             // Leases carry no id: a worker holds at most one.
             "{\"lease\": {\"id\": 0, \"sweep\": 0, \"indices\": [0]}}",
             "{\"quit\": {\"now\": true}}",         // quit carries no payload
         })
        EXPECT_THROW((void)worker_bound_from_line(bad), std::invalid_argument)
            << bad;
}

TEST(FleetProtocol, CoordinatorBoundRejectsMalformedFrames) {
    for (const char* bad : {
             "",                                    // empty
             "{\"ready\": {\"worker\": 0, \"gen\": 0}}",  // missing pid
             "{\"ready\": {\"worker\": 0, \"gen\": 0, \"pid\": 1, "
             "\"x\": 2}}",                          // unknown key
             "{\"ready\": {\"worker\": -1, \"gen\": 0, \"pid\": 1}}",
             "{\"ready\": {\"worker\": 0, \"gen\": -1, \"pid\": 1}}",
             "{\"ready\": {\"worker\": 0, \"gen\": 0, \"pid\": -1}}",
             "{\"done\": {\"sweep\": 0, \"fabric_hits\": -1, "
             "\"fabric_misses\": 0}}",              // negative counter
             "{\"done\": {\"sweep\": -1, \"fabric_hits\": 0, "
             "\"fabric_misses\": 0}}",              // negative sweep
             "{\"done\": {\"sweep\": 0, \"fabric_hits\": 0}}",
             // A done frame names its sweep, not a lease id.
             "{\"done\": {\"lease\": 0, \"fabric_hits\": 0, "
             "\"fabric_misses\": 0}}",
             "{\"perr\": {\"sweep\": 0, \"index\": 0, \"what\": 3}}",
             "{\"perr\": {\"sweep\": 0, \"what\": \"x\"}}",  // missing index
             "{",                                   // truncated
             "[1, 2]",                              // not an object
             "{\"sweep\": 0, \"index\": 0}",        // row without a row
             "{\"sweep\": 0, \"row\": {}}",          // row without an index
             "{\"sweep\": -1, \"index\": 0, \"row\": {}}",
             "{\"sweep\": 0, \"index\": -1, \"row\": {}}",  // negative index
             "{\"sweep\": 0, \"index\": 0, \"row\": 3}",   // row not an object
             "{\"sweep\": 0, \"index\": 0, \"row\": {}, \"x\": 1}",
             "{\"rows\": []}",                      // unknown frame
             // `hb` and `loaded` are not frames of the protocol.
             "{\"hb\":{\"worker\":2,\"n_workers\":4,\"done\":3,\"total\":9,"
             "\"seconds\":1.5}}",
             "{\"loaded\": {\"sweep\": 0, \"n_points\": 1}}",
         })
        EXPECT_THROW((void)coordinator_bound_from_line(bad),
                     std::invalid_argument)
            << bad;
}

// --------------------------------------------------------- serve_worker loop

/// Writes fleet_spec(n_mixes)'s expanded points as a points file, the
/// way the coordinator's run_sweep does.
std::string write_points_file(const TempDir& tmp, std::size_t n_mixes) {
    const std::string path = tmp.path + "/points.json";
    std::ofstream f(path);
    f << util::json_serialize(
        scenario::to_json(fleet_spec(n_mixes).expand()));
    return path;
}

std::string protocol_script(const std::vector<std::string>& lines) {
    std::string text;
    for (const auto& l : lines) {
        text += l;
        text += '\n';
    }
    return text;
}

TEST(FleetServeWorker, ServesInitSweepLeaseQuit) {
    TempDir tmp;
    const auto points = fleet_spec(1).expand();
    ASSERT_EQ(points.size(), 2u);
    InitFrame init;
    init.worker = 0;
    init.n_workers = 1;
    init.gen = 0;
    SweepFrame sweep;
    sweep.id = 7;
    sweep.points_file = write_points_file(tmp, 1);
    sweep.n_points = points.size();
    LeaseFrame lease;
    lease.sweep = 7;
    lease.indices = {0, 1};
    std::istringstream in(protocol_script({init_line(init), sweep_line(sweep),
                                           lease_line(lease), quit_line()}));
    std::ostringstream out, err;
    core::SweepEngine engine(1);
    EXPECT_EQ(serve_worker(in, out, err, engine), 0);
    EXPECT_TRUE(err.str().empty()) << err.str();

    std::vector<core::SweepRow> rows(points.size());
    std::size_t n_rows = 0;
    // The sweep frame gets no reply: ready, the rows, then one done.
    bool saw_ready = false, saw_done = false;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
        const CoordinatorBound frame = coordinator_bound_from_line(line);
        if (frame.ready) {
            EXPECT_FALSE(saw_ready) << "ready emitted twice";
            EXPECT_EQ(frame.ready->worker, 0);
            EXPECT_EQ(frame.ready->gen, 0);
            EXPECT_GT(frame.ready->pid, 0);
            saw_ready = true;
        } else if (frame.row) {
            EXPECT_TRUE(saw_ready) << "row before ready";
            EXPECT_FALSE(saw_done) << "row after done";
            EXPECT_EQ(frame.row->sweep, 7);
            ASSERT_LT(frame.row->index, rows.size());
            rows[frame.row->index] = frame.row->row;
            ++n_rows;
        } else if (frame.done) {
            EXPECT_FALSE(saw_done) << "done emitted twice";
            EXPECT_EQ(frame.done->sweep, 7);
            // Two points, two fabrics: both were cold in this process.
            EXPECT_EQ(frame.done->fabric_misses, 2);
            saw_done = true;
        } else {
            FAIL() << "unexpected frame: " << line;
        }
    }
    EXPECT_TRUE(saw_ready && saw_done);
    EXPECT_EQ(n_rows, points.size());
    expect_rows_bit_identical(rows, expected_rows(1));
}

TEST(FleetServeWorker, BareEofIsAnOrderlyExit) {
    std::istringstream in("");
    std::ostringstream out, err;
    core::SweepEngine engine(1);
    EXPECT_EQ(serve_worker(in, out, err, engine), 0);
    EXPECT_TRUE(out.str().empty());
}

TEST(FleetServeWorker, MalformedFrameIsAProtocolError) {
    std::istringstream in("this is not a frame\n");
    std::ostringstream out, err;
    core::SweepEngine engine(1);
    EXPECT_EQ(serve_worker(in, out, err, engine), 3);
    EXPECT_NE(err.str().find("fleet frame"), std::string::npos) << err.str();
}

TEST(FleetServeWorker, FrameBeforeInitIsAProtocolError) {
    LeaseFrame lease;
    lease.sweep = 0;
    lease.indices = {0};
    std::istringstream in(protocol_script({lease_line(lease)}));
    std::ostringstream out, err;
    core::SweepEngine engine(1);
    EXPECT_EQ(serve_worker(in, out, err, engine), 3);
    EXPECT_NE(err.str().find("before init"), std::string::npos) << err.str();
}

TEST(FleetServeWorker, LeaseValidationIsAProtocolError) {
    TempDir tmp;
    InitFrame init;
    SweepFrame sweep;
    sweep.id = 7;
    sweep.points_file = write_points_file(tmp, 1);
    sweep.n_points = 2;
    // A lease targeting the wrong sweep.
    {
        LeaseFrame lease;
        lease.sweep = 8;
        lease.indices = {0};
        std::istringstream in(protocol_script(
            {init_line(init), sweep_line(sweep), lease_line(lease)}));
        std::ostringstream out, err;
        core::SweepEngine engine(1);
        EXPECT_EQ(serve_worker(in, out, err, engine), 3);
        EXPECT_NE(err.str().find("targets sweep"), std::string::npos)
            << err.str();
    }
    // A lease index past the end of the loaded sweep.
    {
        LeaseFrame lease;
        lease.sweep = 7;
        lease.indices = {5};
        std::istringstream in(protocol_script(
            {init_line(init), sweep_line(sweep), lease_line(lease)}));
        std::ostringstream out, err;
        core::SweepEngine engine(1);
        EXPECT_EQ(serve_worker(in, out, err, engine), 3);
        EXPECT_NE(err.str().find("out of range"), std::string::npos)
            << err.str();
    }
}

TEST(FleetServeWorker, MissingPointsFileIsAProtocolError) {
    TempDir tmp;
    InitFrame init;
    SweepFrame sweep;
    sweep.id = 1;
    sweep.points_file = tmp.path + "/no-such-points.json";
    sweep.n_points = 2;
    std::istringstream in(
        protocol_script({init_line(init), sweep_line(sweep)}));
    std::ostringstream out, err;
    core::SweepEngine engine(1);
    EXPECT_EQ(serve_worker(in, out, err, engine), 3);
    EXPECT_NE(err.str().find("cannot read points file"), std::string::npos)
        << err.str();
}

TEST_F(FleetEnv, FailingPointEmitsPerrAndKeepsServing) {
    TempDir tmp;
    // The strict points-file parse means a point that *parses* cannot
    // name a bad workload, so the failure is injected: the worker's 2nd
    // evaluation attempt throws instead of evaluating (a single-threaded
    // engine attempts the lease in order, so attempt 2 is index 1).
    setenv("FLORETSIM_FLEET_PERR", "0:0:2", 1);
    InitFrame init;
    SweepFrame sweep;
    sweep.id = 2;
    sweep.points_file = write_points_file(tmp, 1);
    sweep.n_points = 2;
    LeaseFrame lease;
    lease.sweep = 2;
    lease.indices = {0, 1};
    std::istringstream in(protocol_script({init_line(init), sweep_line(sweep),
                                           lease_line(lease), quit_line()}));
    std::ostringstream out, err;
    core::SweepEngine engine(1);
    // The failing point is reported in-band; the worker itself survives
    // to serve the quit frame (exit 0, not a crash).
    EXPECT_EQ(serve_worker(in, out, err, engine), 0);
    bool saw_row0 = false, saw_perr1 = false, saw_done = false;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
        const CoordinatorBound frame = coordinator_bound_from_line(line);
        if (frame.row && frame.row->index == 0) saw_row0 = true;
        if (frame.perr) {
            EXPECT_EQ(frame.perr->index, 1u);
            EXPECT_FALSE(frame.perr->what.empty());
            saw_perr1 = true;
        }
        if (frame.done) saw_done = true;
    }
    EXPECT_TRUE(saw_row0);
    EXPECT_TRUE(saw_perr1);
    EXPECT_TRUE(saw_done) << "a failed point must not swallow the lease ack";
}

// ------------------------------------------------- coordinator end to end

TEST_F(FleetEnv, SweepMatchesInProcessRunAndStaysWarmAcrossSweeps) {
    const auto points = fleet_spec(3).expand();
    ASSERT_EQ(points.size(), 6u);
    Coordinator fleet(self_fleet_options(2));
    expect_rows_bit_identical(fleet.run_sweep(points),
                              expected_rows(3));
    EXPECT_EQ(fleet.stats().sweeps, 1);
    EXPECT_EQ(fleet.stats().rows, 6);
    EXPECT_EQ(fleet.stats().worker_deaths, 0);
    EXPECT_EQ(fleet.stats().stale_rows, 0);
    // Two fabric groups of 3 points and a fair share of 3: placement puts
    // each group on its own worker, so each fabric is built exactly once,
    // and every point was placed on a worker that had to adopt its fabric.
    EXPECT_EQ(fleet.stats().fleet_fabric_misses, 2);
    EXPECT_EQ(fleet.stats().affinity_misses, 6);
    EXPECT_EQ(fleet.stats().affinity_hits, 0);
    // A lease is a worker's whole share: one per worker per sweep.
    EXPECT_EQ(fleet.stats().leases_issued, 2);

    // Same points again on the now-warm fleet: every point stays with the
    // worker that holds its fabric.
    expect_rows_bit_identical(fleet.run_sweep(points),
                              expected_rows(3));
    EXPECT_EQ(fleet.stats().sweeps, 2);
    EXPECT_EQ(fleet.stats().rows, 12);
    EXPECT_EQ(fleet.stats().fleet_fabric_misses, 2)
        << "a worker rebuilt a fabric its ArchCache already had";
    EXPECT_EQ(fleet.stats().affinity_misses, 6);
    EXPECT_EQ(fleet.stats().affinity_hits, 6);
    EXPECT_EQ(fleet.stats().leases_issued, 4);
}

TEST_F(FleetEnv, OneWorkerLeasesBothFabricGroupsAtOnce) {
    // The only worker holds both fabric groups: the sweep sends it one
    // lease spanning both, and it builds each fabric once.
    const auto points = fleet_spec(3).expand();
    Coordinator fleet(self_fleet_options(1));
    expect_rows_bit_identical(fleet.run_sweep(points), expected_rows(3));
    EXPECT_EQ(fleet.stats().leases_issued, 1);
    EXPECT_EQ(fleet.stats().fleet_fabric_misses, 2);
    EXPECT_EQ(fleet.stats().rows, 6);
}

TEST_F(FleetEnv, OneFabricSweepIsSplitAcrossWorkers) {
    // One 5-point fabric group on 2 workers: the fair share is 3, so
    // worker 0 gets 3 points and worker 1 the other 2, and both build the
    // one fabric.
    core::SweepSpec spec = fleet_spec(5);
    spec.archs = {Arch::kFloret};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 5u);
    core::SweepEngine local(1);
    const auto want = local.run(spec).rows;
    Coordinator fleet(self_fleet_options(2));
    expect_rows_bit_identical(fleet.run_sweep(points), want);
    EXPECT_EQ(fleet.stats().rows, 5);
    EXPECT_EQ(fleet.stats().fleet_fabric_misses, 2);
    EXPECT_EQ(fleet.stats().affinity_misses, 5);
}

TEST_F(FleetEnv, WarmPoolNeverRebuildsAFabric) {
    // Single worker for full determinism: sweep 1 builds each of the two
    // fabrics exactly once; sweep 2 runs entirely against the persistent
    // process's warm ArchCache — zero new misses, all affinity hits.
    const auto points = fleet_spec(3).expand();
    Coordinator fleet(self_fleet_options(1));
    expect_rows_bit_identical(fleet.run_sweep(points),
                              expected_rows(3));
    EXPECT_EQ(fleet.stats().fleet_fabric_misses, 2);
    expect_rows_bit_identical(fleet.run_sweep(points),
                              expected_rows(3));
    EXPECT_EQ(fleet.stats().fleet_fabric_misses, 2)
        << "the warm pool rebuilt a fabric";
    EXPECT_GT(fleet.stats().fleet_fabric_hits, 0);
    EXPECT_GT(fleet.stats().affinity_hits, 0);
}

TEST_F(FleetEnv, KilledWorkerIsRestartedAndReportIsBitIdentical) {
    // The only worker owns all 6 points, so its first incarnation always
    // reaches its 2nd row and SIGKILLs itself there, holding un-acked
    // leased work: the coordinator must reap it, surface the death,
    // restart it, requeue the 4 un-acked points of its lease as one new
    // lease, and still produce the exact in-process rows.
    setenv("FLORETSIM_FLEET_KILL", "0:0:2", 1);
    const auto points = fleet_spec(3).expand();
    std::ostringstream progress;
    auto opt = self_fleet_options(1);
    opt.progress = &progress;
    Coordinator fleet(opt);
    expect_rows_bit_identical(fleet.run_sweep(points),
                              expected_rows(3));
    EXPECT_EQ(fleet.stats().worker_deaths, 1);
    EXPECT_EQ(fleet.stats().worker_restarts, 1);
    EXPECT_EQ(fleet.stats().points_reassigned, 4);
    EXPECT_EQ(fleet.stats().leases_issued, 2);
    EXPECT_EQ(fleet.stats().rows, 6);
    EXPECT_NE(progress.str().find("died on signal 9"), std::string::npos)
        << progress.str();
    EXPECT_NE(progress.str().find("restarted (gen 1)"), std::string::npos)
        << progress.str();

    // The restarted worker serves the next sweep on its own.
    unsetenv("FLORETSIM_FLEET_KILL");
    expect_rows_bit_identical(fleet.run_sweep(points),
                              expected_rows(3));
    EXPECT_EQ(fleet.stats().worker_deaths, 1) << "the gen-1 worker died too";
    EXPECT_EQ(fleet.stats().leases_issued, 3);
}

TEST_F(FleetEnv, PointFailureFailsTheSweepNamingThePoint) {
    // A perr frame is a point-level failure, not a worker death: the
    // coordinator must fail the sweep with the point's message instead
    // of retrying (a deterministic throw would fail everywhere).
    setenv("FLORETSIM_FLEET_PERR", "0:-1:1", 1);
    Coordinator fleet(self_fleet_options(1));
    try {
        (void)fleet.run_sweep(fleet_spec(1).expand());
        FAIL() << "a failing point completed the sweep";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("failed"), std::string::npos) << what;
        EXPECT_NE(what.find("injected fleet fault"), std::string::npos) << what;
    }
    EXPECT_EQ(fleet.stats().worker_deaths, 0);
    // The failed sweep removed its points file on the way out.
    EXPECT_TRUE(std::filesystem::is_empty(fleet.scratch_dir()))
        << "a failed sweep left files in " << fleet.scratch_dir();
}

TEST_F(FleetEnv, FailedSweepDoesNotLeakIntoTheNext) {
    // Sweep 1 fails on its first point while the only worker still holds
    // the other 5 points of its lease. Sweep 2 must wait for that lease's
    // done frame before it leases: the worker runs in checked mode, which
    // exits 4 (a death) if a frame reaches its stdin before it has sent
    // its done frame. Sweep 1's late rows are dropped as stale. Only the
    // first incarnation fails a point, so a death shows as a death.
    setenv("FLORETSIM_FLEET_PERR", "0:0:1", 1);
    const auto points = fleet_spec(3).expand();
    auto opt = self_fleet_options(1);
    opt.worker_args = {"--fleet-worker", "--check-done"};
    Coordinator fleet(opt);
    try {
        (void)fleet.run_sweep(points);
        FAIL() << "a failing point completed the sweep";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("injected fleet fault"),
                  std::string::npos)
            << e.what();
    }
    expect_rows_bit_identical(fleet.run_sweep(points), expected_rows(3));
    EXPECT_EQ(fleet.stats().worker_deaths, 0)
        << "sweep 2 leased before sweep 1's done frame";
    EXPECT_EQ(fleet.stats().sweeps, 1);
    EXPECT_EQ(fleet.stats().leases_issued, 2);
    EXPECT_EQ(fleet.stats().rows, 6);
    EXPECT_EQ(fleet.stats().stale_rows, 5);
}

TEST_F(FleetEnv, DoneReadWithAFailedPointReachesTheNextSweep) {
    // The only worker fails its first point and writes the lease's perr,
    // row and done frames in one write (--one-write; ~1.3 KB, so one pipe
    // read), so sweep 1 fails on the perr with the row and the done frame
    // read but unhandled. Sweep 2 must handle them (one stale row, the old
    // lease acked) before it can lease the worker again.
    setenv("FLORETSIM_FLEET_PERR", "0:0:1", 1);
    const auto points = fleet_spec(1).expand();
    auto opt = self_fleet_options(1);
    opt.worker_args = {"--fleet-worker", "--one-write"};
    Coordinator fleet(opt);
    EXPECT_THROW((void)fleet.run_sweep(points), std::runtime_error);
    expect_rows_bit_identical(fleet.run_sweep(points), expected_rows(1));
    EXPECT_EQ(fleet.stats().worker_deaths, 0);
    EXPECT_EQ(fleet.stats().stale_rows, 1);
    EXPECT_EQ(fleet.stats().leases_issued, 2);
}

TEST_F(FleetEnv, UnspawnableWorkerExeFailsTheSweep) {
    auto opt = self_fleet_options(1);
    opt.worker_exe = "/nonexistent/floretsim-fleet-worker";
    opt.max_restarts_per_worker = 1;  // fail fast
    Coordinator fleet(opt);
    EXPECT_THROW((void)fleet.run_sweep(fleet_spec(1).expand()),
                 std::runtime_error);
}

TEST_F(FleetEnv, RestartBudgetIsBounded) {
    // Every incarnation of the only worker dies after one row (gen -1
    // matches all generations): after max_restarts the coordinator must
    // give up with an error instead of respawning forever.
    setenv("FLORETSIM_FLEET_KILL", "0:-1:1", 1);
    auto opt = self_fleet_options(1);
    opt.max_restarts_per_worker = 1;
    Coordinator fleet(opt);
    try {
        (void)fleet.run_sweep(fleet_spec(3).expand());
        FAIL() << "a perpetually dying fleet completed a sweep";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("fleet"), std::string::npos)
            << e.what();
    }
    EXPECT_EQ(fleet.stats().worker_restarts, 1);
    EXPECT_EQ(fleet.stats().worker_deaths, 2);
}

TEST_F(FleetEnv, ShutdownReapsWorkersAndRemovesScratch) {
    std::vector<pid_t> pids;
    std::string scratch;
    {
        Coordinator fleet(self_fleet_options(2));
        expect_rows_bit_identical(fleet.run_sweep(fleet_spec(1).expand()),
                                  expected_rows(1));
        scratch = fleet.scratch_dir();
        ASSERT_FALSE(scratch.empty());
        EXPECT_TRUE(std::filesystem::exists(scratch));
        // A finished sweep removes its points file: scratch does not grow
        // with the number of sweeps.
        EXPECT_TRUE(std::filesystem::is_empty(scratch))
            << "a finished sweep left files in " << scratch;
        for (std::int32_t w = 0; w < fleet.n_workers(); ++w) {
            const pid_t pid = fleet.worker_pid(static_cast<std::size_t>(w));
            ASSERT_GT(pid, 0);
            pids.push_back(pid);
        }
        fleet.shutdown();
        EXPECT_TRUE(fleet.scratch_dir().empty());
        // A shut-down coordinator refuses new sweeps instead of silently
        // respawning the fleet.
        EXPECT_THROW((void)fleet.run_sweep(fleet_spec(1).expand()),
                     std::logic_error);
    }
    EXPECT_FALSE(std::filesystem::exists(scratch))
        << "fleet scratch leaked: " << scratch;
    for (const pid_t pid : pids) {
        // Reaped means waited on: the pid is no longer any process of
        // ours (ESRCH), not a zombie.
        errno = 0;
        EXPECT_NE(::kill(pid, 0), 0) << "worker " << pid << " still exists";
        EXPECT_EQ(errno, ESRCH);
    }
}

TEST_F(FleetEnv, EmptySweepNeedsNoFleet) {
    Coordinator fleet(self_fleet_options(2));
    EXPECT_TRUE(fleet.run_sweep({}).empty());
    EXPECT_TRUE(fleet.scratch_dir().empty()) << "an empty sweep spawned workers";
}

TEST(FleetPool, DescribeWaitStatusNamesExitsAndSignals) {
    // Wait statuses as waitpid encodes them on Linux: exit code in the
    // high byte, terminating signal in the low 7 bits. The signal-death
    // path end to end (a worker really SIGKILLed, its death surfaced with
    // the signal name) is KilledWorkerIsRestartedAndReportIsBitIdentical.
    EXPECT_EQ(describe_wait_status(0), "exited with status 0");
    EXPECT_EQ(describe_wait_status(3 << 8), "exited with status 3");
    EXPECT_EQ(describe_wait_status(127 << 8), "exited with status 127");
    EXPECT_EQ(describe_wait_status(9), "died on signal 9 (Killed)");
    EXPECT_EQ(describe_wait_status(15), "died on signal 15 (Terminated)");
}

TEST(FleetPool, ValidatesItsOptions) {
    PoolOptions opt;
    opt.exe = "";
    EXPECT_THROW(WorkerPool{opt}, std::invalid_argument);
    opt.exe = "/bin/true";
    opt.n_workers = 0;
    EXPECT_THROW(WorkerPool{opt}, std::invalid_argument);
    opt.n_workers = 2;
    opt.per_worker_args = {{"--x"}};  // 1 arg set for 2 workers
    EXPECT_THROW(WorkerPool{opt}, std::invalid_argument);
}

}  // namespace
}  // namespace floretsim::fleet

namespace {

/// The worker's stdout in the coordinator tests, written with ::write.
/// --check-done holds each done frame for 100 ms, watching stdin: while a
/// worker holds a lease the coordinator sends it nothing (one outstanding
/// lease per worker, and its next sweep and lease wait for this done
/// frame), so input arriving there exits 4, which the coordinator sees as
/// a worker death. --one-write keeps a lease's row and perr lines until
/// its done frame and writes them all in one write.
class TestWorkerBuf final : public std::streambuf {
public:
    TestWorkerBuf(bool check_done, bool one_write)
        : check_done_(check_done), one_write_(one_write) {}

protected:
    int_type overflow(int_type c) override {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            line_ += traits_type::to_char_type(c);
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char* s, std::streamsize n) override {
        line_.append(s, static_cast<std::size_t>(n));
        return n;
    }
    int sync() override {
        const bool done = line_.starts_with("{\"done\"");
        if (done && check_done_) {
            pollfd in{STDIN_FILENO, POLLIN, 0};
            if (::poll(&in, 1, 100) > 0 && (in.revents & POLLIN)) {
                std::cerr << "fleet worker: input while holding a lease\n";
                std::_Exit(4);
            }
        }
        held_ += line_;
        line_.clear();
        if (one_write_ && !done && !held_.starts_with("{\"ready\"")) return 0;
        for (std::size_t off = 0; off < held_.size();) {
            const ssize_t n =
                ::write(STDOUT_FILENO, held_.data() + off, held_.size() - off);
            if (n < 0 && errno != EINTR) return -1;
            if (n > 0) off += static_cast<std::size_t>(n);
        }
        held_.clear();
        return 0;
    }

private:
    bool check_done_, one_write_;
    std::string line_, held_;
};

}  // namespace

/// In worker mode this binary IS the fleet worker (serve_worker over
/// stdin/stdout) — the Coordinator tests spawn it with --fleet-worker
/// [--check-done] [--one-write]. Otherwise: plain gtest main (this file
/// links gtest, not gtest_main).
int main(int argc, char** argv) {
    if (argc > 1 && std::string_view(argv[1]) == "--fleet-worker") {
        bool check_done = false, one_write = false;
        for (int i = 2; i < argc; ++i) {
            check_done |= std::string_view(argv[i]) == "--check-done";
            one_write |= std::string_view(argv[i]) == "--one-write";
        }
        TestWorkerBuf buf(check_done, one_write);
        std::ostream out(&buf);
        floretsim::core::SweepEngine engine(1);
        return floretsim::fleet::serve_worker(std::cin, out, std::cerr, engine);
    }
    g_self_exe = floretsim::fleet::self_exe_path(argv[0]);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
