// Shared pieces of the repository benchmark: options, the result every
// workload fills, sample statistics, and the span recorder behind the
// traced run.
//
// Tracing model: a span is (name, start, end, parent, group). `group` is
// shared by every span of one program / request / run, the parent link is
// the enclosing open span. Spans live in memory and are written out once,
// at exit. A layer's self time is its span's duration minus what its child
// spans cover; the root span of an operation ("op") therefore keeps the
// time no layer span accounts for.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string known_answers;  ///< path of known_answers.json
  std::string spans_out;      ///< traced run: where to write the spans
  bool corrupt_expected = false;  ///< self-test: perturb every expected answer
};

/// Monotonic nanoseconds (steady_clock).
std::uint64_t now_ns();
inline double ns_to_s(std::uint64_t ns) { return static_cast<double>(ns) / 1e9; }

/// SplitMix64 derivation: the i-th input seed of a run seeded with `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

/// Seeded Fisher-Yates shuffle; `round` gives each pass its own order.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed, std::uint64_t round) {
  for (std::size_t i = v.size(); i > 1; --i)
    std::swap(v[i - 1], v[derive_seed(seed, round * v.size() + i) % i]);
}

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

double median(std::vector<double> v);
/// The 99th percentile (nearest rank), or a lower one when there are too
/// few samples for ten to lie beyond it: then the 11th largest sample (the
/// largest when there are fewer than 11). A fixed share rather than a fixed
/// count, because checked_compile repeats one corpus: a fixed count would
/// fall on whichever program the number of passes in the run reaches.
/// Returns {value, percentile, samples beyond}.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t beyond = 0;
};
Tail tail(std::vector<double> v);

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t group = 0;
};

class Tracer {
 public:
  /// Open a span under the innermost open one; returns its index.
  int begin(std::string name, std::uint64_t group);
  void end(int index);
  /// Add a finished span measured elsewhere (e.g. timings a response
  /// carries); returns its index.
  int record(std::string name, std::uint64_t start_ns, std::uint64_t end_ns, int parent,
             std::uint64_t group);

  /// Self seconds summed per span name.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;
  /// Total duration of the spans named `name`.
  [[nodiscard]] double total_seconds(const std::string& name) const;
  /// One JSON object per line.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, std::uint64_t group)
      : tracer_(tracer), index_(tracer ? tracer->begin(std::move(name), group) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Call `fn` inside a span named `name`.
template <typename Fn>
auto layer(Tracer* tracer, const char* name, std::uint64_t group, Fn&& fn) {
  Scope scope(tracer, name, group);
  return fn();
}

/// Run `untraced()`, and in a traced run also `traced()`, the order
/// alternating with `index` so that neither side always runs second, on
/// warm caches.
template <typename Untraced, typename Traced>
void run_pair(bool trace, std::uint64_t index, Untraced&& untraced, Traced&& traced) {
  if (trace && index % 2 == 1) traced();
  untraced();
  if (trace && index % 2 == 0) traced();
}

/// What a workload hands back to main().
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  std::vector<double> setup_seconds;  ///< one per set-up repetition
  std::vector<double> op_seconds;     ///< untraced end-to-end latencies
  std::vector<double> traced_op_seconds;
  std::uint64_t good = 0;             ///< operations counted in throughput
  double busy_seconds = 0.0;          ///< denominator of throughput

  std::map<std::string, double> layer;  ///< per-layer metrics by name
  std::vector<std::string> notes;       ///< extra human-readable lines

  void fail(std::string message);
};

/// Set-up repetitions. The first runs at once, before anything is measured;
/// the others run between operations, spread evenly over the measured
/// window, so that setup_s (their median) meets the same host conditions
/// as the operations rather than only the cold start of the process.
class SetupReps {
 public:
  /// Runs the first repetition; `seconds` receives each one's duration.
  SetupReps(std::vector<double>& seconds, double window_s, int reps, std::function<void()> body);
  /// Run the next repetition if it is due; call between operations.
  void poll();
  /// Run the repetitions still owed (a short run ends before they fall due).
  void finish();

 private:
  void run_one();

  std::vector<double>& seconds_;
  std::function<void()> body_;
  int reps_;
  int done_ = 0;
  std::uint64_t start_ns_ = 0;
  std::uint64_t interval_ns_ = 0;
};

/// Run `body(i)` for every i in [0, n) on `threads` threads (the caller
/// included). Used by set-up only: exec::parallel_for is off by default,
/// and turning it on would also parallelise the passes being measured.
void parallel_for(std::size_t n, int threads, const std::function<void(std::size_t)>& body);

}  // namespace perfbench
