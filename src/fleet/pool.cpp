#include "src/fleet/pool.h"

#include <fcntl.h>
#include <signal.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace floretsim::fleet {
namespace {

/// Seconds to wait for a worker to exit on its own before escalating
/// during reap/shutdown.
constexpr double kShutdownGraceS = 2.0;

void close_if_open(int& fd) {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

/// waitpid with a deadline: polls WNOHANG until the child exits or
/// kShutdownGraceS elapses. Returns true (and the status) on exit.
bool wait_with_grace(pid_t pid, int& status) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(kShutdownGraceS);
    for (;;) {
        const pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid) return true;
        if (r < 0 && errno != EINTR) return false;  // already reaped / gone
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
}

}  // namespace

void ensure_sigpipe_ignored() {
    static const bool installed = [] {
        struct sigaction sa {};
        if (sigaction(SIGPIPE, nullptr, &sa) == 0 && sa.sa_handler == SIG_DFL) {
            sa.sa_handler = SIG_IGN;
            sigemptyset(&sa.sa_mask);
            sa.sa_flags = 0;
            (void)sigaction(SIGPIPE, &sa, nullptr);
        }
        return true;
    }();
    (void)installed;
}

std::string describe_wait_status(int status) {
    if (WIFEXITED(status))
        return "exited with status " + std::to_string(WEXITSTATUS(status));
    if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        const char* name = strsignal(sig);
        return "died on signal " + std::to_string(sig) + " (" +
               (name ? name : "unknown") + ")";
    }
    return "stopped with wait status " + std::to_string(status);
}

std::string self_exe_path(const char* argv0) {
    std::error_code ec;
    const auto exe = std::filesystem::read_symlink("/proc/self/exe", ec);
    if (!ec && !exe.empty()) return exe.string();
    return argv0 ? argv0 : "floretsim_run";
}

WorkerPool::WorkerPool(PoolOptions opt) : opt_(std::move(opt)) {
    if (opt_.n_workers < 1)
        throw std::invalid_argument("fleet pool: n_workers must be >= 1");
    if (opt_.exe.empty())
        throw std::invalid_argument("fleet pool: exe is empty");
    if (!opt_.per_worker_args.empty() &&
        opt_.per_worker_args.size() != opt_.n_workers)
        throw std::invalid_argument(
            "fleet pool: per_worker_args must be empty or one per worker");
    workers_.resize(opt_.n_workers);
}

WorkerPool::~WorkerPool() { terminate_all(); }

void WorkerPool::start(std::size_t w) {
    Worker& worker = workers_.at(w);
    if (worker.alive)
        throw std::logic_error("fleet pool: worker " + std::to_string(w) +
                               " is already running");
    // O_CLOEXEC on every parent-side end: a sibling worker forked later
    // must not inherit (and hold open) this worker's pipes, or EOF
    // detection on a dead worker would hang until every sibling exits.
    int in_pipe[2], out_pipe[2], err_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0)
        throw std::runtime_error("fleet pool: pipe2 failed: " +
                                 std::string(strerror(errno)));
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        throw std::runtime_error("fleet pool: pipe2 failed: " +
                                 std::string(strerror(errno)));
    }
    if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        throw std::runtime_error("fleet pool: pipe2 failed: " +
                                 std::string(strerror(errno)));
    }

    std::vector<std::string> argv_store;
    argv_store.push_back(opt_.exe);
    for (const auto& a : opt_.args) argv_store.push_back(a);
    if (!opt_.per_worker_args.empty())
        for (const auto& a : opt_.per_worker_args[w]) argv_store.push_back(a);
    std::vector<char*> argv;
    argv.reserve(argv_store.size() + 1);
    for (auto& a : argv_store) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        ::close(out_pipe[0]);
        ::close(out_pipe[1]);
        ::close(err_pipe[0]);
        ::close(err_pipe[1]);
        throw std::runtime_error("fleet pool: fork failed: " +
                                 std::string(strerror(errno)));
    }
    if (pid == 0) {
        // Child. Async-signal-safe calls only between fork and exec.
        // PDEATHSIG: if the coordinator is SIGKILLed (no destructor runs),
        // the kernel kills this worker too — the no-orphans guarantee the
        // RAII shutdown path cannot provide on its own.
        (void)::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) _exit(127);  // parent died before prctl
        if (::dup2(in_pipe[0], STDIN_FILENO) < 0 ||
            ::dup2(out_pipe[1], STDOUT_FILENO) < 0 ||
            ::dup2(err_pipe[1], STDERR_FILENO) < 0)
            _exit(127);
        ::execv(opt_.exe.c_str(), argv.data());
        ::dprintf(STDERR_FILENO, "fleet worker: cannot exec %s: %s\n",
                  opt_.exe.c_str(), strerror(errno));
        _exit(127);
    }
    // Parent. Read ends are nonblocking: the coordinator's poll loop
    // reads exactly what is available, and draining a dying worker's
    // stderr must never block on a still-open pipe.
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    ::close(err_pipe[1]);
    (void)::fcntl(out_pipe[0], F_SETFL, O_NONBLOCK);
    (void)::fcntl(err_pipe[0], F_SETFL, O_NONBLOCK);
    worker.pid = pid;
    worker.stdin_fd = in_pipe[1];
    worker.stdout_fd = out_pipe[0];
    worker.stderr_fd = err_pipe[0];
    worker.gen += 1;
    worker.alive = true;
    worker.exit_status = 0;
}

bool WorkerPool::send(std::size_t w, std::string_view line) {
    Worker& worker = workers_.at(w);
    if (!worker.alive || worker.stdin_fd < 0) return false;
    std::string buf(line);
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n =
            ::write(worker.stdin_fd, buf.data() + off, buf.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;  // EPIPE et al: the caller handles the death
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool WorkerPool::alive(std::size_t w) const { return workers_.at(w).alive; }
pid_t WorkerPool::pid(std::size_t w) const { return workers_.at(w).pid; }
std::int32_t WorkerPool::gen(std::size_t w) const { return workers_.at(w).gen; }
int WorkerPool::stdout_fd(std::size_t w) const {
    return workers_.at(w).stdout_fd;
}
int WorkerPool::stderr_fd(std::size_t w) const {
    return workers_.at(w).stderr_fd;
}

void WorkerPool::close_fds(Worker& w) {
    close_if_open(w.stdin_fd);
    close_if_open(w.stdout_fd);
    close_if_open(w.stderr_fd);
}

int WorkerPool::reap(std::size_t w) {
    Worker& worker = workers_.at(w);
    if (!worker.alive) return worker.exit_status;
    close_fds(worker);
    int status = 0;
    if (!wait_with_grace(worker.pid, status)) {
        (void)::kill(worker.pid, SIGKILL);
        while (::waitpid(worker.pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    worker.exit_status = status;
    worker.alive = false;
    return status;
}

void WorkerPool::terminate_all() {
    // Phase 1: close every stdin at once — serving workers see EOF and
    // exit on their own, concurrently.
    for (auto& w : workers_)
        if (w.alive) close_if_open(w.stdin_fd);
    // Phase 2: grace, then escalate per straggler.
    bool all_done = true;
    for (auto& w : workers_) {
        if (!w.alive) continue;
        int status = 0;
        if (wait_with_grace(w.pid, status)) {
            close_fds(w);
            w.exit_status = status;
            w.alive = false;
        } else {
            all_done = false;
        }
    }
    if (all_done) return;
    for (auto& w : workers_)
        if (w.alive) (void)::kill(w.pid, SIGTERM);
    for (auto& w : workers_) {
        if (!w.alive) continue;
        int status = 0;
        if (!wait_with_grace(w.pid, status)) {
            (void)::kill(w.pid, SIGKILL);
            while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
            }
        }
        close_fds(w);
        w.exit_status = status;
        w.alive = false;
    }
}

}  // namespace floretsim::fleet
