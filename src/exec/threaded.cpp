#include "exec/threaded.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "trace/trace.hpp"

namespace dhpf::exec::threaded {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_between(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Raised in ranks that were force-woken by the deadlock watchdog, so the
/// driver can distinguish the (shared) abort from a rank's own failure.
struct AbortError : Error {
  using Error::Error;
};

/// Trace span names of one backend, interned once per process.
struct SpanNames {
  trace::NameId compute, send, recv, wait, barrier;
};

const SpanNames& span_names(Backend backend) {
  const auto intern = [](const std::string& b) {
    trace::Recorder& rec = trace::Recorder::global();
    return SpanNames{rec.intern(b + ".compute"), rec.intern(b + ".send"),
                     rec.intern(b + ".recv"), rec.intern(b + ".wait"),
                     rec.intern(b + ".barrier")};
  };
  static const SpanNames mp = intern("mp"), shm = intern("shm");
  return backend == Backend::Shm ? shm : mp;
}

struct Message {
  int src = 0;
  int tag = 0;
  std::vector<double> data;
};

struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Message> q;
};

/// The central sense-reversing barrier. `generation` advances on every
/// release; waiters block until their entry generation is superseded. All
/// fields (and the endpoints' barrier-blocked flags) are mutated under `mu`,
/// which is what makes the watchdog's barrier classification race-free.
struct CentralBarrier {
  std::mutex mu;
  std::condition_variable cv;
  int count = 0;
  std::uint64_t generation = 0;
};

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Sentinel want_tag for a rank parked at the barrier (real tags are >= 0).
constexpr int kBarrierTag = -2;

/// First message (FIFO delivery order) matching (src, tag); src may be
/// kAnySource. Caller holds the mailbox mutex.
std::size_t find_match(const Mailbox& box, int src, int tag) {
  for (std::size_t i = 0; i < box.q.size(); ++i) {
    const Message& m = box.q[i];
    if ((src == kAnySource || m.src == src) && m.tag == tag) return i;
  }
  return kNpos;
}

class Runtime;

class Endpoint final : public exec::Channel {
 public:
  Endpoint(Runtime* rt, int rank) : rt_(rt), rank_(rank) {}

  [[nodiscard]] int rank() const override { return rank_; }
  [[nodiscard]] int nprocs() const override;
  [[nodiscard]] double now() const override;
  [[nodiscard]] const exec::Machine& machine() const override;

  void compute(double flops) override;
  void elapse(double seconds) override;

  void set_phase(std::string phase) override {
    const auto t = SteadyClock::now();
    phase_wall_[phase_] += seconds_between(phase_enter_, t);
    phase_ = std::move(phase);
    phase_enter_ = t;
  }
  [[nodiscard]] const std::string& phase() const override { return phase_; }

  void send(int dst, int tag, std::vector<double> data) override;
  [[nodiscard]] bool has_message(int src, int tag) const override;

  [[nodiscard]] Backend backend() const;

  /// The shared-memory primitives (see shm::barrier / shm::note_shared_read).
  void barrier_wait();
  void add_shared_read(std::size_t bytes) { stats.shared_read_bytes += bytes; }

  /// Realize any outstanding modelled compute (Spin/Sleep) in host time.
  void flush_compute(bool force);
  /// Close the open phase interval; called once when the rank finishes.
  void finish();

  RankStats stats;
  /// phase -> total wall / blocked real seconds on this rank.
  std::map<std::string, double> phase_wall_;
  std::map<std::string, double> phase_wait_;

  /// Publish (src, tag) then raise the blocked flag, in that order.
  void want_src_store(int src, int tag);

  // Watchdog-visible blocked state. For receive waits these are mutated
  // only while holding this rank's mailbox mutex; for barrier waits
  // (want_tag == kBarrierTag) only while holding the barrier mutex. The
  // watchdog takes the matching lock before trusting a classification.
  std::atomic<bool> blocked{false};
  std::atomic<bool> done{false};
  std::atomic<int> want_src{0};
  std::atomic<int> want_tag{0};
  /// Generation this rank waits to end; read/written under the barrier mutex.
  std::uint64_t barrier_gen_wanted = 0;

 protected:
  bool recv_ready(int src, int tag) override;
  void recv_suspend(int, int, std::coroutine_handle<>) override {
    fail("threaded", "internal: coroutine suspended on a real-thread backend");
  }
  std::vector<double> recv_complete(int src, int tag) override;

 private:
  Runtime* rt_;
  int rank_;
  std::string phase_;
  SteadyClock::time_point phase_enter_;
  double debt_seconds_ = 0.0;  ///< modelled compute not yet realized
  std::vector<double> pending_;  ///< payload stashed by recv_ready
  int pending_src_ = kAnySource;
  bool have_pending_ = false;

  friend class Runtime;
};

class Runtime {
 public:
  Runtime(Backend backend, int nranks, const Options& opt,
          const std::function<exec::Task(exec::Channel&)>& body)
      : backend_(backend), name_(to_string(backend)), spans_(span_names(backend)),
        opt_(opt), body_(body) {
    require(backend != Backend::Sim, "threaded", "the simulator is not a threaded backend");
    require(nranks > 0, name_, "need at least one rank");
    boxes_ = std::make_unique<Mailbox[]>(static_cast<std::size_t>(nranks));
    endpoints_.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) endpoints_.push_back(std::make_unique<Endpoint>(this, r));
    errors_.resize(static_cast<std::size_t>(nranks));
  }

  [[nodiscard]] Backend backend() const { return backend_; }
  /// "mp" or "shm": prefixes obs names and error components.
  [[nodiscard]] const char* name() const { return name_; }
  [[nodiscard]] const SpanNames& spans() const { return spans_; }
  [[nodiscard]] int nranks() const { return static_cast<int>(endpoints_.size()); }
  [[nodiscard]] const Options& options() const { return opt_; }
  [[nodiscard]] Mailbox& box(int rank) { return boxes_[static_cast<std::size_t>(rank)]; }
  [[nodiscard]] const Mailbox& box(int rank) const {
    return boxes_[static_cast<std::size_t>(rank)];
  }
  [[nodiscard]] CentralBarrier& bar() { return barrier_; }
  [[nodiscard]] SteadyClock::time_point start_time() const { return start_; }

  [[nodiscard]] bool aborted() const { return aborted_.load(std::memory_order_acquire); }
  [[nodiscard]] std::string abort_message() const {
    std::lock_guard<std::mutex> lock(abort_mu_);
    return abort_msg_;
  }

  void deliver(int dst, Message msg) {
    require(dst >= 0 && dst < nranks(), name_, "send: destination rank out of range");
    Mailbox& b = box(dst);
    {
      std::lock_guard<std::mutex> lock(b.mu);
      b.q.push_back(std::move(msg));
    }
    deliveries_.fetch_add(1, std::memory_order_release);
    b.cv.notify_all();
  }

  /// Called by the releasing rank of a barrier episode (under the barrier
  /// mutex): progress signal for the watchdog plus the global episode count.
  void note_barrier_release() { barrier_epochs_.fetch_add(1, std::memory_order_release); }
  [[nodiscard]] std::uint64_t barrier_epochs() const {
    return barrier_epochs_.load(std::memory_order_acquire);
  }

  double run(Stats* stats_out);

 private:
  void rank_main(int r);
  void watchdog_main();
  /// One precise deadlock scan; fires the abort and returns true on deadlock.
  bool deadlock_scan();
  void abort_run(const std::string& msg);

  Backend backend_;
  const char* name_;
  const SpanNames& spans_;
  Options opt_;
  const std::function<exec::Task(exec::Channel&)>& body_;
  std::unique_ptr<Mailbox[]> boxes_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::exception_ptr> errors_;
  CentralBarrier barrier_;
  SteadyClock::time_point start_;

  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> barrier_epochs_{0};
  std::atomic<bool> aborted_{false};
  mutable std::mutex abort_mu_;
  std::string abort_msg_;

  // watchdog shutdown signalling
  std::mutex wd_mu_;
  std::condition_variable wd_cv_;
  bool wd_stop_ = false;

  friend class Endpoint;
};

// ---------------------------------------------------------------- Endpoint

int Endpoint::nprocs() const { return rt_->nranks(); }

Backend Endpoint::backend() const { return rt_->backend(); }

double Endpoint::now() const { return seconds_between(rt_->start_time(), SteadyClock::now()); }

const exec::Machine& Endpoint::machine() const { return rt_->options().machine; }

void Endpoint::compute(double flops) { elapse(flops * rt_->options().machine.flop_time); }

void Endpoint::elapse(double seconds) {
  require(seconds >= 0.0, rt_->name(), "negative compute time");
  stats.compute_seconds += seconds;
  if (rt_->options().compute_mode != ComputeMode::Noop)
    debt_seconds_ += seconds * rt_->options().time_scale;
  // Batch tiny per-statement charges; sub-granularity sleeps/spins would
  // swamp the run with syscall overhead.
  if (debt_seconds_ > 100e-6) flush_compute(false);
}

void Endpoint::flush_compute(bool force) {
  if (debt_seconds_ <= 0.0) return;
  const ComputeMode mode = rt_->options().compute_mode;
  if (mode == ComputeMode::Noop) {
    debt_seconds_ = 0.0;
    return;
  }
  if (!force && debt_seconds_ <= 50e-6) return;
  trace::Span span(rt_->spans().compute, trace::Kind::Compute);
  const std::chrono::duration<double> d(debt_seconds_);
  if (mode == ComputeMode::Sleep) {
    std::this_thread::sleep_for(d);
  } else {
    const auto until = SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(d);
    while (SteadyClock::now() < until) {
      // busy-wait; keep the loop observable to the optimizer
      std::atomic_signal_fence(std::memory_order_seq_cst);
    }
  }
  debt_seconds_ = 0.0;
}

void Endpoint::finish() {
  flush_compute(true);
  const auto t = SteadyClock::now();
  phase_wall_[phase_] += seconds_between(phase_enter_, t);
}

void Endpoint::send(int dst, int tag, std::vector<double> data) {
  flush_compute(false);
  trace::Span span(rt_->spans().send, trace::Kind::Send);
  const std::size_t bytes = data.size() * sizeof(double);
  rt_->deliver(dst, Message{rank_, tag, std::move(data)});
  ++stats.sends;
  stats.bytes_sent += bytes;
}

bool Endpoint::has_message(int src, int tag) const {
  const Mailbox& b = rt_->box(rank_);
  std::lock_guard<std::mutex> lock(const_cast<std::mutex&>(b.mu));
  return find_match(b, src, tag) != kNpos;
}

bool Endpoint::recv_ready(int src, int tag) {
  require(src == kAnySource || (src >= 0 && src < rt_->nranks()), rt_->name(),
          "recv: source rank out of range");
  flush_compute(false);
  trace::Span span(rt_->spans().recv, trace::Kind::Recv);
  Mailbox& b = rt_->box(rank_);
  std::unique_lock<std::mutex> lock(b.mu);
  std::size_t idx = find_match(b, src, tag);
  if (idx == kNpos && !rt_->aborted()) {
    // The wait span stays open while the rank is parked — a deadlocked
    // rank's flight recorder therefore ends with an [open] <backend>.wait,
    // which is exactly what the watchdog dump shows.
    trace::Span wait_span(rt_->spans().wait, trace::Kind::Wait);
    want_src_store(src, tag);
    const auto start = SteadyClock::now();
    const double timeout = rt_->options().recv_timeout_s;
    const auto deadline =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(timeout > 0.0 ? timeout : 0.0));
    bool timed_out = false;
    while (true) {
      idx = find_match(b, src, tag);
      if (idx != kNpos || rt_->aborted()) break;
      if (timeout > 0.0) {
        if (b.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
          idx = find_match(b, src, tag);  // final re-check under the lock
          if (idx != kNpos || rt_->aborted()) break;
          timed_out = true;
          break;
        }
      } else {
        b.cv.wait(lock);
      }
    }
    blocked.store(false, std::memory_order_seq_cst);
    const double waited = seconds_between(start, SteadyClock::now());
    stats.wait_seconds += waited;
    phase_wait_[phase_] += waited;
    if (timed_out) {
      std::ostringstream msg;
      msg << "recv timeout: rank " << rank_ << " waited "
          << rt_->options().recv_timeout_s << "s on (src=" << src << ", tag=" << tag
          << ") — missing send or deadlock";
      fail(rt_->name(), msg.str());
    }
  }
  if (idx == kNpos) {
    // Force-woken by the watchdog with nothing to consume.
    throw AbortError(rt_->name(), rt_->abort_message());
  }
  Message msg = std::move(b.q[idx]);
  b.q.erase(b.q.begin() + static_cast<std::ptrdiff_t>(idx));
  lock.unlock();
  ++stats.recvs;
  stats.bytes_received += msg.data.size() * sizeof(double);
  pending_ = std::move(msg.data);
  pending_src_ = msg.src;
  have_pending_ = true;
  return true;
}

void Endpoint::want_src_store(int src, int tag) {
  // Publish what we are waiting for *before* raising the blocked flag so
  // the watchdog never reads a stale (src, tag) for a blocked rank.
  want_src.store(src, std::memory_order_seq_cst);
  want_tag.store(tag, std::memory_order_seq_cst);
  blocked.store(true, std::memory_order_seq_cst);
}

std::vector<double> Endpoint::recv_complete(int, int) {
  require(have_pending_, rt_->name(), "internal: recv completed without a matched message");
  have_pending_ = false;
  return std::move(pending_);
}

void Endpoint::barrier_wait() {
  flush_compute(false);
  trace::Span span(rt_->spans().barrier, trace::Kind::Wait);
  CentralBarrier& bar = rt_->bar();
  std::unique_lock<std::mutex> lock(bar.mu);
  if (rt_->aborted()) throw AbortError(rt_->name(), rt_->abort_message());
  ++stats.barriers;
  const std::uint64_t gen = bar.generation;
  if (++bar.count == rt_->nranks()) {
    bar.count = 0;
    ++bar.generation;
    rt_->note_barrier_release();
    bar.cv.notify_all();
    return;
  }
  // Watchdog-visible barrier wait, published under the barrier mutex.
  want_src.store(kAnySource, std::memory_order_seq_cst);
  want_tag.store(kBarrierTag, std::memory_order_seq_cst);
  barrier_gen_wanted = gen;
  blocked.store(true, std::memory_order_seq_cst);
  const auto start = SteadyClock::now();
  const double timeout = rt_->options().recv_timeout_s;
  const auto deadline =
      start + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(timeout > 0.0 ? timeout : 0.0));
  bool timed_out = false;
  while (bar.generation == gen && !rt_->aborted()) {
    if (timeout > 0.0) {
      if (bar.cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        if (bar.generation != gen || rt_->aborted()) break;
        timed_out = true;
        break;
      }
    } else {
      bar.cv.wait(lock);
    }
  }
  blocked.store(false, std::memory_order_seq_cst);
  const double waited = seconds_between(start, SteadyClock::now());
  stats.wait_seconds += waited;
  phase_wait_[phase_] += waited;
  if (bar.generation != gen) return;  // released normally
  if (timed_out) {
    std::ostringstream msg;
    msg << "barrier timeout: rank " << rank_ << " waited "
        << rt_->options().recv_timeout_s << "s with " << bar.count << "/"
        << rt_->nranks() << " ranks arrived — a peer died or deadlocked";
    fail(rt_->name(), msg.str());
  }
  // Force-woken by the watchdog with the barrier still shut.
  throw AbortError(rt_->name(), rt_->abort_message());
}

// ----------------------------------------------------------------- Runtime

void Runtime::rank_main(int r) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(r)];
  if (trace::Recorder::global().enabled())
    trace::Recorder::global().set_thread_label("rank" + std::to_string(r), r);
  ep.phase_enter_ = SteadyClock::now();
  try {
    exec::Task root = body_(ep);
    if (root.handle()) root.handle().resume();
    require(root.done(), name_, "rank returned control without completing");
    root.rethrow_if_failed();
  } catch (...) {
    errors_[static_cast<std::size_t>(r)] = std::current_exception();
  }
  ep.finish();
  ep.done.store(true, std::memory_order_seq_cst);
}

bool Runtime::deadlock_scan() {
  // Sound because sends bump deliveries_ and a recv-blocked rank only
  // unblocks after a delivery (or abort/timeout); likewise a barrier release
  // bumps barrier_epochs_, and a rank parked at the barrier can only proceed
  // once its entry generation is superseded (mp runs never park there). If
  // every unfinished rank is observed blocked — recv-blocked with no
  // matching pending message (under its mailbox lock), or barrier-blocked on
  // the current generation (under the barrier lock) — and neither counter
  // moved across the scan, none of them can ever make progress again.
  const std::uint64_t before_d = deliveries_.load(std::memory_order_acquire);
  const std::uint64_t before_b = barrier_epochs();
  std::ostringstream who;
  int blocked_count = 0, live = 0;
  for (int r = 0; r < nranks(); ++r) {
    Endpoint& ep = *endpoints_[static_cast<std::size_t>(r)];
    if (ep.done.load(std::memory_order_seq_cst)) continue;
    ++live;
    bool at_barrier = false;
    {
      Mailbox& b = box(r);
      std::lock_guard<std::mutex> lock(b.mu);
      if (!ep.blocked.load(std::memory_order_seq_cst)) return false;
      const int src = ep.want_src.load(std::memory_order_seq_cst);
      const int tag = ep.want_tag.load(std::memory_order_seq_cst);
      if (tag == kBarrierTag) {
        at_barrier = true;
      } else {
        if (find_match(b, src, tag) != kNpos) return false;  // about to wake
        who << " rank " << r << " waiting on (src=" << src << ", tag=" << tag << ")";
        ++blocked_count;
      }
    }
    if (at_barrier) {
      // Confirm under the barrier mutex: the rank is genuinely parked on the
      // *current* generation (a stale flag after a release is progress).
      std::lock_guard<std::mutex> lock(barrier_.mu);
      if (!ep.blocked.load(std::memory_order_seq_cst) ||
          ep.want_tag.load(std::memory_order_seq_cst) != kBarrierTag)
        return false;
      if (barrier_.generation != ep.barrier_gen_wanted) return false;  // released
      who << " rank " << r << " waiting at barrier (" << barrier_.count << "/"
          << nranks() << " arrived)";
      ++blocked_count;
    }
  }
  if (live == 0 || blocked_count < live) return false;
  if (deliveries_.load(std::memory_order_acquire) != before_d) return false;
  if (barrier_epochs() != before_b) return false;
  abort_run("deadlock:" + who.str());
  return true;
}

void Runtime::abort_run(const std::string& msg) {
  {
    std::lock_guard<std::mutex> lock(abort_mu_);
    if (abort_msg_.empty()) abort_msg_ = msg;
  }
  // Before waking anyone: every stuck rank is parked, so the flight
  // recorders are a consistent picture of how the run got here.
  trace::Recorder& rec = trace::Recorder::global();
  if (rec.enabled()) {
    std::string dump = std::string(name_) + " watchdog: " + msg + "\n" + rec.flight_dump_text();
    std::fputs(dump.c_str(), stderr);
  }
  aborted_.store(true, std::memory_order_release);
  for (int r = 0; r < nranks(); ++r) {
    // Acquire-release on each mailbox mutex so parked ranks observe the
    // abort flag when they re-check their wait predicate.
    std::lock_guard<std::mutex> lock(box(r).mu);
    box(r).cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_.mu);
    barrier_.cv.notify_all();
  }
}

void Runtime::watchdog_main() {
  const auto period = std::chrono::duration<double>(opt_.watchdog_period_s);
  std::unique_lock<std::mutex> lock(wd_mu_);
  while (!wd_stop_) {
    if (wd_cv_.wait_for(lock, period, [&] { return wd_stop_; })) return;
    lock.unlock();
    const bool fired = deadlock_scan();
    lock.lock();
    if (fired) return;
  }
}

double Runtime::run(Stats* stats_out) {
  const int n = nranks();
  start_ = SteadyClock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) threads.emplace_back([this, r] { rank_main(r); });
  std::thread watchdog;
  if (opt_.watchdog_period_s > 0.0) watchdog = std::thread([this] { watchdog_main(); });

  for (auto& t : threads) t.join();
  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mu_);
      wd_stop_ = true;
    }
    wd_cv_.notify_all();
    watchdog.join();
  }
  const double wall = seconds_between(start_, SteadyClock::now());

  // Rank failures: report the first rank-originated error; fall back to the
  // watchdog's deadlock description when every failure is the shared abort.
  std::string abort_text;
  for (int r = 0; r < n; ++r) {
    if (!errors_[static_cast<std::size_t>(r)]) continue;
    try {
      std::rethrow_exception(errors_[static_cast<std::size_t>(r)]);
    } catch (const AbortError& e) {
      if (abort_text.empty()) abort_text = e.what();
    } catch (const std::exception& e) {
      fail(name_, "rank " + std::to_string(r) + " failed: " + e.what());
    }
  }
  if (!abort_text.empty()) throw Error(name_, abort_message());

  Stats stats;
  stats.wall_seconds = wall;
  stats.barriers = static_cast<std::size_t>(barrier_epochs());
  stats.ranks.reserve(static_cast<std::size_t>(n));
  std::map<std::string, Stats::PhaseRow> phases;
  for (int r = 0; r < n; ++r) {
    Endpoint& ep = *endpoints_[static_cast<std::size_t>(r)];
    stats.ranks.push_back(ep.stats);
    stats.messages += ep.stats.sends;
    stats.bytes += ep.stats.bytes_sent;
    stats.shared_read_bytes += ep.stats.shared_read_bytes;
    for (const auto& [name, wall_s] : ep.phase_wall_) {
      Stats::PhaseRow& row = phases[name];
      row.phase = name;
      const auto wit = ep.phase_wait_.find(name);
      const double wait_s = wit == ep.phase_wait_.end() ? 0.0 : wit->second;
      row.busy += wall_s - wait_s;
      row.wait += wait_s;
    }
  }
  for (auto& [name, row] : phases) stats.phases.push_back(row);

  // Observability: the counters/gauges/timers the benches and obs docs read.
  obs::Registry& reg = obs::Registry::global();
  const std::string b = name_;
  reg.add(b + ".runs");
  reg.add(b + ".messages", stats.messages);
  reg.add(b + ".bytes", stats.bytes);
  if (backend_ == Backend::Shm) {
    reg.add("shm.barriers", stats.barriers);
    reg.add("shm.shared_bytes", stats.shared_read_bytes);
  }
  for (int r = 0; r < n; ++r) {
    const RankStats& rs = stats.ranks[static_cast<std::size_t>(r)];
    const std::string prefix = b + ".rank" + std::to_string(r);
    reg.set_gauge(prefix + ".sends", static_cast<double>(rs.sends));
    reg.set_gauge(prefix + ".recvs", static_cast<double>(rs.recvs));
    reg.set_gauge(prefix + ".wait_seconds", rs.wait_seconds);
  }
  for (const auto& row : stats.phases)
    if (!row.phase.empty()) reg.timer(b + ".phase." + row.phase).add(row.busy);

  if (stats_out) *stats_out = std::move(stats);
  return wall;
}

}  // namespace

double watchdog_period_from_env(double fallback) {
  const char* env = std::getenv("DHPF_WATCHDOG_MS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const double ms = std::strtod(env, &end);
  if (end == env || *end != '\0') return fallback;  // not a number: ignore
  return ms <= 0.0 ? 0.0 : ms / 1000.0;
}

double run(Backend backend, int nranks, const Options& opt,
           const std::function<Task(Channel&)>& body, Stats* stats_out) {
  Options effective = opt;
  effective.watchdog_period_s = watchdog_period_from_env(opt.watchdog_period_s);
  Runtime rt(backend, nranks, effective, body);
  return rt.run(stats_out);
}

}  // namespace dhpf::exec::threaded

namespace dhpf::shm {

using exec::threaded::Endpoint;

void barrier(exec::Channel& ch) {
  require(is_shm_channel(ch), "shm", "barrier: channel does not belong to an shm run");
  static_cast<Endpoint&>(ch).barrier_wait();
}

void note_shared_read(exec::Channel& ch, std::size_t bytes) {
  require(is_shm_channel(ch), "shm",
          "note_shared_read: channel does not belong to an shm run");
  static_cast<Endpoint&>(ch).add_shared_read(bytes);
}

bool is_shm_channel(const exec::Channel& ch) {
  const auto* ep = dynamic_cast<const Endpoint*>(&ch);
  return ep != nullptr && ep->backend() == exec::Backend::Shm;
}

}  // namespace dhpf::shm
