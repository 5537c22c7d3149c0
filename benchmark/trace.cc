#include "trace.h"

#include <sched.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <new>
#include <vector>

namespace tcpdyn::bench {

namespace {

// Probe buffers come straight from mmap and go back with munmap. Heap
// memory would stay with the benchmark process (glibc keeps large freed
// blocks once it has raised its mmap threshold), and every forked trial
// would inherit it into its peak RSS.
template <typename T>
class MappedArray {
 public:
  explicit MappedArray(std::size_t n)
      : n_(n),
        p_(mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)) {
    if (p_ == MAP_FAILED) throw std::bad_alloc();
  }
  ~MappedArray() { munmap(p_, n_ * sizeof(T)); }
  MappedArray(const MappedArray&) = delete;
  MappedArray& operator=(const MappedArray&) = delete;

  T& operator[](std::size_t i) { return static_cast<T*>(p_)[i]; }

 private:
  std::size_t n_;
  void* p_;
};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

void Tracer::add(SpanRecord span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

Span::Span(Tracer* tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer),
      name_(name),
      parent_(parent),
      start_ns_(now_ns()),
      start_cpu_ns_(thread_cpu_ns()) {
  if (tracer_ != nullptr) id_ = tracer_->next_id();
}

double Span::end() {
  if (end_ns_ < 0) {
    end_cpu_ns_ = thread_cpu_ns();
    end_ns_ = now_ns();
    if (tracer_ != nullptr) {
      tracer_->add({id_, parent_, name_, start_ns_, end_ns_,
                    end_cpu_ns_ - start_cpu_ns_});
    }
  }
  return static_cast<double>(end_cpu_ns_ - start_cpu_ns_) * 1e-9;
}

double Span::wall_s() const {
  return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
}

double cache_probe_s() {
  // Sattolo's shuffle: one cycle through every slot.
  constexpr std::uint32_t kSlots = 1u << 16;
  MappedArray<std::uint32_t> cycle(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) cycle[i] = i;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(cycle[i], cycle[x % i]);
  }
  double best = 0.0;
  std::uint32_t at = 0;
  for (int rep = 0; rep < 2; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 300'000; ++i) at = cycle[at];
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    best = rep == 0 ? s : std::min(best, s);
  }
  // `at` feeds the result so the chase cannot be optimized away.
  return best + static_cast<double>(at & 1) * 1e-15;
}

void unpin() {
  // The kernel intersects the mask with the CPUs the process is allowed.
  cpu_set_t every;
  CPU_ZERO(&every);
  for (int c = 0; c < CPU_SETSIZE; ++c) CPU_SET(c, &every);
  sched_setaffinity(0, sizeof(every), &every);
}

double clock_probe_s() {
  double best = 0.0;
  std::uint64_t x = 1;
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < 3'000'000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    const double s = static_cast<double>(now_ns() - t0) * 1e-9;
    best = rep == 0 ? s : std::min(best, s);
  }
  // `x` feeds the result so the chain cannot be optimized away.
  return best + static_cast<double>(x & 1) * 1e-15;
}

std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(
      std::lround(q * static_cast<double>(v.size() - 1)))];
}

std::vector<double> self_seconds(const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    children[spans[i].parent].push_back(i);
  }
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (auto it = children.find(s.id); it != children.end()) {
      for (std::size_t c : it->second) {
        cover.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                           std::min(spans[c].end_ns, s.end_ns));
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : cover) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    out[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

}  // namespace tcpdyn::bench
