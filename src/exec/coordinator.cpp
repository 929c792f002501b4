#include "exec/coordinator.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/check.hpp"
#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {

std::string ToString(ExecFailure failure) {
  switch (failure) {
    case ExecFailure::kNone:
      return "none";
    case ExecFailure::kExit:
      return "exit";
    case ExecFailure::kSignal:
      return "signal";
    case ExecFailure::kBadFrame:
      return "bad-frame";
    case ExecFailure::kTimeout:
      return "timeout";
    case ExecFailure::kSpawn:
      return "spawn";
  }
  return "unknown";
}

std::string ToString(WorkerEvent::Kind kind) {
  switch (kind) {
    case WorkerEvent::Kind::kSpawn:
      return "spawn";
    case WorkerEvent::Kind::kExit:
      return "exit";
    case WorkerEvent::Kind::kKill:
      return "kill";
  }
  return "unknown";
}

namespace {

/// Retry k (0-based) waits kBackoffInitialSeconds * 2^k, capped.
constexpr double kBackoffInitialSeconds = 0.05;
constexpr double kBackoffMaxSeconds = 2.0;

double BackoffSeconds(int attempt) {
  return std::min(kBackoffInitialSeconds * std::ldexp(1.0, attempt),
                  kBackoffMaxSeconds);
}

/// One worker subprocess owned by a coordinator slot thread.
struct Worker {
  pid_t pid = -1;
  int in_fd = -1;   ///< coordinator writes point frames (worker stdin)
  int out_fd = -1;  ///< coordinator reads result frames (worker stdout)
  bool alive() const { return pid > 0; }
};

void CloseFd(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

std::string DescribeWaitStatus(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "unknown") + ")";
  }
  return "unrecognized wait status " + std::to_string(status);
}

/// Reaps a (dead or dying) worker and returns its wait-status description.
std::string ReapWorker(Worker* w) {
  CloseFd(&w->in_fd);
  CloseFd(&w->out_fd);
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(w->pid, &status, 0);
  } while (r < 0 && errno == EINTR);
  w->pid = -1;
  if (r < 0) return std::string("waitpid: ") + std::strerror(errno);
  return DescribeWaitStatus(status);
}

/// SIGKILLs and reaps a live worker (deadline overrun or untrusted state).
std::string KillWorker(Worker* w) {
  ::kill(w->pid, SIGKILL);
  return ReapWorker(w);
}

/// fork/execs one worker with stdin/stdout pipes. An exec failure in the
/// child (bad path, not executable) is reported through a CLOEXEC status
/// pipe, so the caller can distinguish "could not spawn" from a worker
/// that launched and then died. All pipe fds are O_CLOEXEC so workers do
/// not inherit each other's channel ends (a leaked write end would defeat
/// EOF-based shutdown).
bool SpawnWorker(const std::string& path, Worker* w, std::string* error) {
  int in_pipe[2] = {-1, -1}, out_pipe[2] = {-1, -1}, st_pipe[2] = {-1, -1};
  if (::pipe2(in_pipe, O_CLOEXEC) < 0 || ::pipe2(out_pipe, O_CLOEXEC) < 0 ||
      ::pipe2(st_pipe, O_CLOEXEC) < 0) {
    *error = std::string("pipe2: ") + std::strerror(errno);
    for (int* fd : {&in_pipe[0], &in_pipe[1], &out_pipe[0], &out_pipe[1],
                    &st_pipe[0], &st_pipe[1]}) {
      CloseFd(fd);
    }
    return false;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    for (int* fd : {&in_pipe[0], &in_pipe[1], &out_pipe[0], &out_pipe[1],
                    &st_pipe[0], &st_pipe[1]}) {
      CloseFd(fd);
    }
    return false;
  }
  if (pid == 0) {
    // Child: wire the protocol pipes to stdin/stdout (dup2 clears
    // O_CLOEXEC on the duplicates) and exec the worker.
    if (::dup2(in_pipe[0], STDIN_FILENO) < 0 ||
        ::dup2(out_pipe[1], STDOUT_FILENO) < 0) {
      _exit(127);
    }
    ::execl(path.c_str(), path.c_str(), static_cast<char*>(nullptr));
    const int err = errno;
    [[maybe_unused]] ssize_t n = ::write(st_pipe[1], &err, sizeof err);
    _exit(127);
  }
  // Parent.
  CloseFd(&in_pipe[0]);
  CloseFd(&out_pipe[1]);
  CloseFd(&st_pipe[1]);
  int exec_errno = 0;
  ssize_t n;
  do {
    n = ::read(st_pipe[0], &exec_errno, sizeof exec_errno);
  } while (n < 0 && errno == EINTR);
  CloseFd(&st_pipe[0]);
  if (n > 0) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    CloseFd(&in_pipe[1]);
    CloseFd(&out_pipe[0]);
    *error = "exec '" + path + "': " + std::strerror(exec_errno);
    return false;
  }
  w->pid = pid;
  w->in_fd = in_pipe[1];
  w->out_fd = out_pipe[0];
  return true;
}

/// One attempt of `frame` on the live worker `w`. Success fills *result
/// and returns kNone; a failure returns its class with *detail and the
/// lifecycle *event, the worker already reaped or killed.
ExecFailure AttemptPoint(Worker* w, const PointFrame& frame,
                         double timeout_seconds, NetworkSimResult* result,
                         std::string* detail, WorkerEvent::Kind* event) {
  *event = WorkerEvent::Kind::kExit;
  std::string werr;
  if (!WriteFrame(w->in_fd, EncodePointFrame(frame), &werr)) {
    // The worker died before (or while) reading the point.
    *detail = ReapWorker(w) + " before accepting the point";
    return detail->rfind("signal", 0) == 0 ? ExecFailure::kSignal
                                           : ExecFailure::kExit;
  }
  const FrameRead rr =
      ReadFrame(w->out_fd, timeout_seconds > 0 ? timeout_seconds : -1.0);
  switch (rr.status) {
    case FrameRead::Status::kOk:
      *event = WorkerEvent::Kind::kKill;
      try {
        ResultFrame rf = DecodeResultFrame(rr.payload);
        if (rf.index != frame.index ||
            rf.config_fingerprint != NetworkSimConfigFingerprint(frame.config)) {
          *detail = "result frame for point " + std::to_string(rf.index) +
                    " (expected " + std::to_string(frame.index) +
                    ") or mismatched fingerprint; " + KillWorker(w);
          return ExecFailure::kBadFrame;
        }
        *result = std::move(rf.result);
        return ExecFailure::kNone;
      } catch (const SimError& e) {
        // Right length, rotten bytes: the worker's stream state is
        // untrustworthy, so it is replaced.
        *detail = std::string("undecodable result frame: ") + e.what() +
                  "; " + KillWorker(w);
        return ExecFailure::kBadFrame;
      }
    case FrameRead::Status::kTimeout: {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "point exceeded its %.3fs deadline; worker killed",
                    timeout_seconds);
      *detail = std::string(buf) + " (" + KillWorker(w) + ")";
      *event = WorkerEvent::Kind::kKill;
      return ExecFailure::kTimeout;
    }
    case FrameRead::Status::kEof:
    case FrameRead::Status::kShort: {
      *detail = ReapWorker(w);
      if (detail->rfind("signal", 0) == 0) return ExecFailure::kSignal;
      if (*detail != "exit status 0") return ExecFailure::kExit;
      *detail = "worker exited cleanly mid-point";
      if (rr.status == FrameRead::Status::kShort) {
        *detail += " (" + rr.detail + ")";
      }
      return ExecFailure::kBadFrame;
    }
    case FrameRead::Status::kError:
      break;
  }
  *detail = "frame read failed: " + rr.detail + "; " + KillWorker(w);
  *event = WorkerEvent::Kind::kKill;
  return ExecFailure::kBadFrame;
}

}  // namespace

std::string DefaultWorkerPath() {
  if (const char* env = std::getenv("VIXNOC_SWEEP_WORKER")) {
    // An explicit setting is honored verbatim: if it is wrong, the spawn
    // failure is classified and surfaced rather than silently replaced.
    if (*env != '\0') return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  const std::string dir =
      std::filesystem::path(buf).parent_path().string();
  for (const std::string& candidate :
       {dir + "/vixnoc_sweep_worker", dir + "/../src/app/vixnoc_sweep_worker",
        dir + "/../../src/app/vixnoc_sweep_worker"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return {};
}

SweepExecResult& SweepExecResult::operator+=(SweepExecResult later) {
  const auto append = [](auto* to, auto& from) {
    to->insert(to->end(), std::make_move_iterator(from.begin()),
               std::make_move_iterator(from.end()));
  };
  append(&results, later.results);
  append(&points, later.points);
  append(&origins, later.origins);
  append(&events, later.events);
  crashes += later.crashes;
  timeouts += later.timeouts;
  bad_frames += later.bad_frames;
  spawn_failures += later.spawn_failures;
  retries += later.retries;
  workers_spawned += later.workers_spawned;
  exhausted_points += later.exhausted_points;
  fallback_points += later.fallback_points;
  defective_cache_points += later.defective_cache_points;
  return *this;
}

SweepCoordinator::SweepCoordinator(ExecPolicy policy)
    : policy_(std::move(policy)) {
  policy_.num_workers = ResolveThreadCount(policy_.num_workers);
  if (policy_.worker_path.empty()) policy_.worker_path = DefaultWorkerPath();
  policy_.max_retries = std::max(policy_.max_retries, 0);
}

SweepExecResult SweepCoordinator::Run(
    const std::vector<NetworkSimConfig>& configs) {
  SweepExecResult out;
  out.points.resize(configs.size());
  if (configs.empty()) return out;
  if (policy_.worker_path.empty()) {
    // No worker binary anywhere: degrade the whole batch to in-process
    // execution rather than wedging or throwing.
    std::fprintf(stderr,
                 "vixnoc: warning: no vixnoc_sweep_worker binary found "
                 "(set VIXNOC_SWEEP_WORKER); running sweep in-process "
                 "without crash isolation\n");
  }

  // One worker subprocess per pool thread, spawned on the thread's first
  // point and touched only by that thread until Run reaps it below. `mu`
  // guards the batch tallies and the event log; each out.points[index]
  // belongs to the one thread running that point.
  const int num_slots = static_cast<int>(
      std::min<std::size_t>(policy_.num_workers, configs.size()));
  std::vector<Worker> workers(num_slots);
  std::mutex mu;
  std::atomic<bool> spawn_broken{false};

  // Graceful degradation: a point no worker can run executes in-process on
  // the slot's own thread, with ExecutePoint's error-slot convention.
  const auto run_in_process = [&](const NetworkSimConfig& config,
                                  ExecStatus* st, ExecFailure failure,
                                  std::string detail) {
    st->in_process_fallback = true;
    if (failure != ExecFailure::kNone) st->last_failure = failure;
    st->failure_detail = std::move(detail);
    {
      std::lock_guard<std::mutex> lock(mu);
      ++out.fallback_points;
    }
    return SweepRunner::ExecutePoint(config);
  };

  // The execute step: the point on this slot's worker, retried inline on a
  // respawned worker with the backoff slept here, until it succeeds or its
  // retries run out.
  const auto step = [&](const NetworkSimConfig& config, std::size_t index,
                        int slot) {
    ExecStatus& st = out.points[index];
    if (config.topology_factory) {
      return run_in_process(config, &st, ExecFailure::kNone,
                            "topology_factory cannot cross a process "
                            "boundary");
    }
    if (policy_.worker_path.empty()) {
      return run_in_process(config, &st, ExecFailure::kSpawn,
                            "no worker binary found");
    }
    Worker& w = workers[slot];
    for (int attempt = 0;; ++attempt) {
      if (!w.alive()) {
        if (spawn_broken) {
          // A slot already proved subprocesses cannot be spawned.
          return run_in_process(config, &st, ExecFailure::kSpawn,
                                "subprocess spawning unavailable");
        }
        // A dead peer must surface as EPIPE from write(), not SIGPIPE.
        sigset_t sigpipe;
        sigemptyset(&sigpipe);
        sigaddset(&sigpipe, SIGPIPE);
        pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);
        std::string err;
        const bool spawned = SpawnWorker(policy_.worker_path, &w, &err);
        {
          std::lock_guard<std::mutex> lock(mu);
          if (spawned) {
            ++out.workers_spawned;
            out.events.push_back(WorkerEvent{WorkerEvent::Kind::kSpawn, slot,
                                             static_cast<long>(w.pid), ""});
          } else {
            ++out.spawn_failures;
          }
        }
        if (!spawned) {
          spawn_broken = true;
          return run_in_process(config, &st, ExecFailure::kSpawn, err);
        }
      }

      const long pid = w.pid;
      NetworkSimResult result;
      std::string detail;
      WorkerEvent::Kind event;
      const ExecFailure failure = AttemptPoint(
          &w, PointFrame{index, static_cast<std::uint32_t>(attempt), config},
          policy_.point_timeout_seconds, &result, &detail, &event);
      st.attempts = attempt + 1;
      if (failure == ExecFailure::kNone) {
        st.isolated = true;
        return result;
      }
      // The worker is already dead; a retry respawns one.
      st.last_failure = failure;
      st.failure_detail = detail;
      const bool retry = attempt < policy_.max_retries;
      {
        std::lock_guard<std::mutex> lock(mu);
        ++(failure == ExecFailure::kTimeout    ? out.timeouts
           : failure == ExecFailure::kBadFrame ? out.bad_frames
                                               : out.crashes);
        ++(retry ? out.retries : out.exhausted_points);
        out.events.push_back(WorkerEvent{
            event, slot, pid, "point " + std::to_string(index) + ": " + detail});
      }
      if (!retry) {
        result.outcome.status = SimStatus::kExecFailure;
        result.outcome.message = "worker " + ToString(failure) +
                                 " failure: " + detail + " (" +
                                 std::to_string(attempt + 1) + " attempts)";
        return result;
      }
      const double backoff = BackoffSeconds(attempt);
      st.backoff_seconds += backoff;
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  };

  SweepRunner runner(num_slots, step);
  runner.SetCache(policy_.cache);
  out.results = runner.Run(configs);

  // Batch complete: shut the workers down by closing their stdin (each
  // exits on EOF), all before reaping any so that their exits overlap.
  for (Worker& w : workers) CloseFd(&w.in_fd);
  for (int slot = 0; slot < num_slots; ++slot) {
    Worker& w = workers[slot];
    if (!w.alive()) continue;
    const long pid = w.pid;
    out.events.push_back(WorkerEvent{WorkerEvent::Kind::kExit, slot, pid,
                                     "shutdown: " + ReapWorker(&w)});
  }

  out.origins = runner.origins();
  out.defective_cache_points = runner.defective_cache_points();
  return out;
}

}  // namespace vixnoc
