#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "support/json.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + (i + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t p99 = (99 * n + 99) / 100 - 1;  // ceil(0.99 n) - 1
  const std::size_t k = std::min(p99, n >= 11 ? n - 11 : n - 1);
  t.value = v[k];
  t.beyond = n - 1 - k;
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

int Tracer::begin(std::string name, std::uint64_t group) {
  const int parent = open_.empty() ? -1 : open_.back();
  const std::uint64_t t = now_ns();
  const int index = record(std::move(name), t, t, parent, group);
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
                   int parent, std::uint64_t group) {
  spans_.push_back(Span{std::move(name), start_ns, std::max(start_ns, end_ns), parent, group});
  return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_seconds() const {
  // Children of one parent never overlap here (layer calls are sequential),
  // so the part of the parent they cover is the sum of their clipped spans.
  std::vector<std::uint64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::uint64_t lo = std::max(s.start_ns, p.start_ns);
    const std::uint64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[static_cast<std::size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    out[spans_[i].name] += ns_to_s(dur - std::min(dur, covered[i]));
  }
  return out;
}

double Tracer::total_seconds(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += ns_to_s(s.end_ns - s.start_ns);
  return sum;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    dhpf::json::Writer w(/*pretty=*/false);
    w.begin_object();
    w.member("id", static_cast<std::uint64_t>(i));
    w.member("name", s.name);
    w.member("start_ns", s.start_ns);
    w.member("end_ns", s.end_ns);
    w.member("parent", static_cast<std::int64_t>(s.parent));
    w.member("group", s.group);
    w.end_object();
    std::fprintf(f, "%s\n", w.str().c_str());
  }
  return std::fclose(f) == 0;
}

void Result::fail(std::string message) {
  ++failed;
  if (failures.size() < 5) failures.push_back(std::move(message));
}

SetupReps::SetupReps(std::vector<double>& seconds, double window_s, int reps,
                     std::function<void()> body)
    : seconds_(seconds), body_(std::move(body)), reps_(reps) {
  run_one();
  start_ns_ = now_ns();
  interval_ns_ = static_cast<std::uint64_t>(window_s * 1e9 / std::max(reps, 1));
}

void SetupReps::poll() {
  if (done_ < reps_ && now_ns() >= start_ns_ + static_cast<std::uint64_t>(done_) * interval_ns_)
    run_one();
}

void SetupReps::finish() {
  while (done_ < reps_) run_one();
}

void SetupReps::run_one() {
  const std::uint64_t t0 = now_ns();
  body_();
  seconds_.push_back(ns_to_s(now_ns() - t0));
  ++done_;
}

void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& body) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::exception_ptr first;
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < n;) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first) first = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace perfbench
