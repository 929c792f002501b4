// vixnoc_sweep_worker: the subprocess half of crash-isolated sweeps.
//
// Reads length-prefixed point frames on stdin, runs each point through
// the same deterministic RunNetworkSim the in-process path uses, and
// writes length-prefixed result frames on stdout (exec/exec_protocol.hpp
// describes the wire format). Exits 0 on clean EOF. stdout carries
// nothing but result frames — all diagnostics go to stderr.
//
// The coordinator (exec/coordinator.hpp) treats any deviation — nonzero
// exit, death by signal, a short or undecodable frame, or silence past
// the per-point deadline — as a classified failure of the *point*, never
// of the batch. A SimError inside the simulation is not a process
// failure: like SweepRunner, the worker converts it into a result slot
// with SimStatus::kInvariantViolation and keeps serving points.
//
// Deterministic failure injection for tests (exec_test.cpp, tier1.sh):
//
//   VIXNOC_TEST_CRASH_POINT=<i>[:<n>]     abort() on point i
//   VIXNOC_TEST_HANG_POINT=<i>[:<n>]      hang forever on point i
//   VIXNOC_TEST_EXIT_POINT=<i>[:<n>]      _exit(41) on point i
//   VIXNOC_TEST_BADFRAME_POINT=<i>[:<n>]  write a truncated result frame
//                                         for point i, then exit 0
//
// With the ":<n>" suffix the hook only fires while the frame's attempt
// counter is below n, so a "crash twice, then succeed" retry path is a
// one-variable setup. Without it the hook fires on every attempt.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "common/error.hpp"
#include "exec/exec_protocol.hpp"
#include "sim/sweep.hpp"

namespace vixnoc {
namespace {

/// Parses "<index>[:<max_attempt>]" hooks; fires when `index` matches and
/// attempt < max_attempt (max_attempt defaults to "always").
bool HookFires(const char* env_name, std::uint64_t index,
               std::uint32_t attempt) {
  const char* env = std::getenv(env_name);
  if (env == nullptr || *env == '\0') return false;
  char* end = nullptr;
  const unsigned long long hook_index = std::strtoull(env, &end, 10);
  if (end == env) return false;
  unsigned long long max_attempt = ~0ull;
  if (*end == ':') {
    max_attempt = std::strtoull(end + 1, nullptr, 10);
  } else if (*end != '\0') {
    return false;
  }
  return hook_index == index && attempt < max_attempt;
}

void ApplyTestHooks(const PointFrame& point) {
  if (HookFires("VIXNOC_TEST_CRASH_POINT", point.index, point.attempt)) {
    std::fprintf(stderr,
                 "vixnoc_sweep_worker: injected crash on point %llu "
                 "(attempt %u)\n",
                 static_cast<unsigned long long>(point.index), point.attempt);
    std::abort();
  }
  if (HookFires("VIXNOC_TEST_HANG_POINT", point.index, point.attempt)) {
    std::fprintf(stderr,
                 "vixnoc_sweep_worker: injected hang on point %llu "
                 "(attempt %u)\n",
                 static_cast<unsigned long long>(point.index), point.attempt);
    for (;;) ::pause();  // no CPU burn; the coordinator's watchdog kills us
  }
  if (HookFires("VIXNOC_TEST_EXIT_POINT", point.index, point.attempt)) {
    std::fprintf(stderr,
                 "vixnoc_sweep_worker: injected exit(41) on point %llu "
                 "(attempt %u)\n",
                 static_cast<unsigned long long>(point.index), point.attempt);
    std::_Exit(41);
  }
  if (HookFires("VIXNOC_TEST_BADFRAME_POINT", point.index, point.attempt)) {
    std::fprintf(stderr,
                 "vixnoc_sweep_worker: injected short frame on point %llu "
                 "(attempt %u)\n",
                 static_cast<unsigned long long>(point.index), point.attempt);
    // A length prefix promising 64 bytes, followed by only 8: the
    // coordinator sees the stream end mid-frame with exit status 0.
    const unsigned char bytes[16] = {64, 0, 0, 0, 0, 0, 0, 0,
                                     'g', 'a', 'r', 'b', 'a', 'g', 'e', '!'};
    [[maybe_unused]] ssize_t n = ::write(STDOUT_FILENO, bytes, sizeof bytes);
    std::_Exit(0);
  }
}

int WorkerMain() {
  for (;;) {
    const FrameRead in = ReadFrame(STDIN_FILENO, -1.0);
    if (in.status == FrameRead::Status::kEof) return 0;  // clean shutdown
    if (in.status != FrameRead::Status::kOk) {
      std::fprintf(stderr, "vixnoc_sweep_worker: bad input frame: %s\n",
                   in.detail.c_str());
      return 3;
    }
    PointFrame point;
    try {
      point = DecodePointFrame(in.payload);
    } catch (const SimError& e) {
      std::fprintf(stderr, "vixnoc_sweep_worker: undecodable point: %s\n",
                   e.what());
      return 4;
    }
    ApplyTestHooks(point);

    // Same per-point error contract as SweepRunner's worker threads: a
    // recoverable simulation error becomes a failed result slot, and the
    // worker stays alive for the next point.
    const NetworkSimResult result = SweepRunner::ExecutePoint(point.config);

    std::string error;
    if (!WriteFrame(STDOUT_FILENO,
                    EncodeResultFrame(point.index,
                                      NetworkSimConfigFingerprint(point.config),
                                      result),
                    &error)) {
      std::fprintf(stderr, "vixnoc_sweep_worker: cannot write result: %s\n",
                   error.c_str());
      return 5;
    }
  }
}

}  // namespace
}  // namespace vixnoc

int main() { return vixnoc::WorkerMain(); }
