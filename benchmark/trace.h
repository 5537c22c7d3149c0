// Measurement plumbing for the benchmark: phase timers that double as trace
// spans, allocation counts from the replaced global operator new
// (alloc_count.cc), and the probes that rank and rescale the machine's
// speed (README.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tcpdyn::bench {

// Monotonic clock in nanoseconds.
std::int64_t now_ns();

// CPU time in nanoseconds, of the calling thread or of the whole process.
// Unlike wall time it leaves out the time the hypervisor runs other guests
// on this guest's vCPUs (steal, README.md).
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
  std::string name;
  std::int64_t start_ns = 0;  // wall clock
  std::int64_t end_ns = 0;
  std::int64_t cpu_ns = 0;  // the opening thread's CPU time over the span
};

// In-memory span store, written out when the run ends. Sweep points record
// from worker threads, so appends are locked.
class Tracer {
 public:
  std::uint64_t next_id() { return next_id_.fetch_add(1); }
  void add(SpanRecord span);
  std::vector<SpanRecord> take();

 private:
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

// Times one phase of the thread that opens and closes it. With a tracer it
// is also a span: closing it records (name, id, parent, start, end, CPU
// time). Without one it only times.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span (once) and returns the thread's CPU seconds over it.
  double end();
  // Its wall-clock length in seconds, once closed.
  double wall_s() const;
  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_;
  std::int64_t start_ns_;
  std::int64_t start_cpu_ns_;
  std::int64_t end_ns_ = -1;
  std::int64_t end_cpu_ns_ = -1;
};

// Allocation counts since process start, while counting is on. The calling
// thread's own count attributes a phase exactly even when sweep points run
// concurrently; the process total also covers threads that have exited
// (the sharded engine's workers).
void set_alloc_counting(bool on);
std::uint64_t thread_allocs();
std::uint64_t process_allocs();

// Seconds for a short cache-bound probe (pointer chasing over 256 KiB),
// best of two. It shares no code with the simulator; run on each vCPU in
// turn it ranks how fast each one is at that moment.
double cache_probe_s();

// Lets the calling thread, and every thread it starts from now on, run on
// any vCPU this process may use.
void unpin();

// Seconds for a chain of dependent integer multiply-adds, best of three:
// core-bound work that shares no code with the simulator, so its time
// tracks only the clock speed of the vCPU it runs on.
double clock_probe_s();

// clock_probe_s() on the reference host (README.md) at full clock.
inline constexpr double kReferenceClockProbeS = 0.0042;

// Resident set size of this process now, in bytes (/proc/self/statm).
std::uint64_t current_rss_bytes();

// The q-quantile of `v` by nearest rank; 0 for an empty `v`.
double quantile(std::vector<double> v, double q);

// Self time per span: its length minus the union of its children's
// intervals (sweep points overlap, so children are merged, not summed).
std::vector<double> self_seconds(const std::vector<SpanRecord>& spans);

}  // namespace tcpdyn::bench
