// Host speed probe for perfbench.
//
// The benchmark host shares its cores, caches and memory bus with other
// tenants. Their load drifts over seconds to minutes and can slow this
// process by 2x for a whole run, which no amount of averaging inside a
// run removes. Between stretches of measured work the benchmark asks
// for a reading of a fixed mix of random DRAM reads and hash-set probes
// (the kinds of access the simulator's maps make). Its rate against
// kReferenceRate is the host's speed at that moment, and host times are
// scaled by it to reference-speed time.
//
// The probe runs in a child process forked before anything large is
// allocated, so its 64 MiB table stays out of the benchmark's memory
// footprint. The parent blocks until each reading arrives, so the probe
// never overlaps measured work. Both processes are pinned to one CPU
// (pin_to_current_cpu), so the probe sees the contention the simulator
// sees.
#pragma once

#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// Best effort: pin this process, and children forked after, to the CPU
/// it is running on. Besides sharing the probe's core, this removes the
/// noise of migrating between CPUs that neighbours load unequally.
inline void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

class SpeedProbe {
 public:
  SpeedProbe() : table_(kTableWords) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = i * 2654435761u;
    }
    for (std::uint64_t i = 0; i < kSetKeys; ++i) set_.insert(key(i));
  }

  /// Host speed now relative to the reference machine: 1.0 there,
  /// below 1 when the host is slower.
  double speed() {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t k = 0; k < kOps; ++k) {
      x_ = x_ * 6364136223846793005ull + 1442695040888963407ull;
      sink_ += table_[(x_ >> 20) & (table_.size() - 1)];
      sink_ += set_.count(key((x_ >> 24) % (2 * kSetKeys)));
    }
    __asm__ volatile("" : : "r"(sink_) : "memory");
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return static_cast<double>(kOps) / s / kReferenceRate;
  }

 private:
  static std::uint64_t key(std::uint64_t i) {
    return i * 0x9E3779B97F4A7C15ull;
  }

  static constexpr std::size_t kTableWords = std::size_t{1} << 23;  // 64 MiB
  static constexpr std::uint64_t kSetKeys = 300'000;
  static constexpr std::uint64_t kOps = 100'000;
  /// Probe operations per second on the reference machine (Intel Xeon,
  /// 4 vCPUs, 105 MiB shared L3, g++ 12 -O3), a typical reading.
  static constexpr double kReferenceRate = 5.0e6;

  std::vector<std::uint64_t> table_;
  std::unordered_set<std::uint64_t> set_;
  std::uint64_t x_ = 1;
  std::uint64_t sink_ = 0;
};

/// A SpeedProbe in a child process, read over a pair of pipes.
class HostSpeed {
 public:
  HostSpeed() {
    int req[2];
    int rep[2];
    if (pipe(req) != 0) throw std::runtime_error("HostSpeed: pipe failed");
    if (pipe(rep) != 0) {
      close(req[0]);
      close(req[1]);
      throw std::runtime_error("HostSpeed: pipe failed");
    }
    std::fflush(nullptr);
    pid_ = fork();
    if (pid_ < 0) {
      for (const int fd : {req[0], req[1], rep[0], rep[1]}) close(fd);
      throw std::runtime_error("HostSpeed: fork failed");
    }
    if (pid_ == 0) {
      close(req[1]);
      close(rep[0]);
      serve(req[0], rep[1]);
    }
    close(req[0]);
    close(rep[1]);
    to_child_ = req[1];
    from_child_ = rep[0];
  }

  /// Closing the request pipe ends the child; wait for it.
  ~HostSpeed() {
    close(to_child_);
    close(from_child_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }

  HostSpeed(const HostSpeed&) = delete;
  HostSpeed& operator=(const HostSpeed&) = delete;

  /// One probe reading (about 20-40 ms).
  double now() {
    char c = 1;
    double v = 0;
    if (!transfer(to_child_, &c, 1, true) ||
        !transfer(from_child_, reinterpret_cast<char*>(&v), sizeof v, false)) {
      throw std::runtime_error("HostSpeed: probe process failed");
    }
    return v;
  }

 private:
  /// Full read or write of `n` bytes, retrying on EINTR.
  static bool transfer(int fd, char* buf, std::size_t n, bool write_side) {
    while (n > 0) {
      const ssize_t r = write_side ? write(fd, buf, n) : read(fd, buf, n);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf += r;
      n -= static_cast<std::size_t>(r);
    }
    return true;
  }

  [[noreturn]] static void serve(int in, int out) {
    // Die with the parent even if it is killed before closing the pipe.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    int code = 0;
    try {
      SpeedProbe probe;
      char c = 0;
      while (transfer(in, &c, 1, false)) {
        double v = probe.speed();
        if (!transfer(out, reinterpret_cast<char*>(&v), sizeof v, true)) {
          break;
        }
      }
    } catch (...) {
      code = 1;
    }
    _exit(code);
  }

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

}  // namespace perfbench
