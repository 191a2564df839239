#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace floretsim::fleet {

// ---- Process-coordination helpers ------------------------------------------

/// Ignores SIGPIPE process-wide (idempotent; leaves a non-default
/// disposition installed by the host application alone). A coordinator
/// writing a frame to a worker that just died must see EPIPE from
/// write(), not a fatal signal — one dead worker can never take the
/// whole sweep down with it.
void ensure_sigpipe_ignored();

/// Human-readable description of a waitpid() status:
/// "exited with status 3" or "died on signal 9 (Killed)".
[[nodiscard]] std::string describe_wait_status(int status);

/// This process's executable path: /proc/self/exe when readable (Linux),
/// else `argv0` as given.
[[nodiscard]] std::string self_exe_path(const char* argv0);

// ---- The worker pool --------------------------------------------------------

/// How to launch one persistent worker process.
struct PoolOptions {
    /// Executable to spawn (normally self_exe_path(argv[0])).
    std::string exe;
    /// Arguments common to every worker (e.g. {"--worker", "--serve",
    /// "--threads", "1"}). argv[0] is always `exe`.
    std::vector<std::string> args;
    /// Extra per-worker arguments (size n_workers or empty) — the seam
    /// for per-worker --trace-out/--metrics-out paths.
    std::vector<std::vector<std::string>> per_worker_args;
    std::size_t n_workers = 2;
};

/// Owns N long-lived worker subprocesses and their pipes. Pure process
/// plumbing — fork/exec, fd bookkeeping, reaping, escalating shutdown —
/// with no knowledge of the protocol spoken over the pipes (that is the
/// Coordinator's job). RAII is the orphan-prevention contract: the
/// destructor terminates and reaps every child, and each child arms
/// PR_SET_PDEATHSIG so even a SIGKILLed coordinator leaves no orphan
/// workers behind.
class WorkerPool {
public:
    explicit WorkerPool(PoolOptions opt);
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    [[nodiscard]] std::size_t size() const { return workers_.size(); }

    /// (Re)spawns worker `w`. Each spawn increments the worker's
    /// generation — the coordinator stamps it into the init frame so
    /// output from a dead incarnation is attributable. Throws
    /// std::runtime_error when the process cannot be created (fork or
    /// pipe failure; a failed exec surfaces as an immediate exit 127).
    void start(std::size_t w);

    /// Writes `line` plus '\n' to the worker's stdin. Returns false when
    /// the write fails (EPIPE from a dead worker, closed fd) — the
    /// caller decides whether that is a death to handle.
    [[nodiscard]] bool send(std::size_t w, std::string_view line);

    [[nodiscard]] bool alive(std::size_t w) const;
    [[nodiscard]] pid_t pid(std::size_t w) const;
    [[nodiscard]] std::int32_t gen(std::size_t w) const;
    [[nodiscard]] int stdout_fd(std::size_t w) const;
    [[nodiscard]] int stderr_fd(std::size_t w) const;

    /// Closes the worker's pipes and reaps it: waits up to a 2 s grace
    /// period for a voluntary exit, then SIGKILLs and waits for real.
    /// Returns the wait status (0 if the worker was already reaped).
    /// Idempotent.
    int reap(std::size_t w);

    /// Orderly pool shutdown: closes every stdin (a serving worker sees
    /// EOF and exits cleanly), waits the grace period, escalates to
    /// SIGTERM then SIGKILL, and reaps everything. Idempotent; called by
    /// the destructor.
    void terminate_all();

private:
    struct Worker {
        pid_t pid = -1;
        int stdin_fd = -1;
        int stdout_fd = -1;
        int stderr_fd = -1;
        std::int32_t gen = -1;  ///< Incremented by each start().
        bool alive = false;
        int exit_status = 0;
    };

    void close_fds(Worker& w);

    PoolOptions opt_;
    std::vector<Worker> workers_;
};

}  // namespace floretsim::fleet
