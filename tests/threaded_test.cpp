// Tests for the threaded runtime (exec/threaded.hpp) on both of its
// backends, mp and shm, and for backend parity: the same node programs
// (collectives, generated SPMD programs, NAS variants) must produce
// bit-identical results on the virtual-time simulator and on real threads.
//
// Cases that hold on both backends are written once over the backend with
// BOTH_BACKENDS and run as an Mp* and an Shm* case. The mailbox semantics
// are shared code, so they run on mp only; the barrier and the
// shared-memory lowering exist only on shm.
//
// Determinism policy under test (see docs/runtime.md):
//   * messages between one (source, tag) pair are FIFO on every backend;
//   * receives that name their source are fully deterministic — this
//     covers everything codegen emits, the NAS variants, and the
//     collectives;
//   * wildcard (kAnySource) receives are deterministic on sim (earliest
//     virtual arrival, ties by source rank) but match in real arrival
//     order on threads — nondeterministic across sources, so tests only
//     assert the *set* of received messages there.
//
// What is shm-specific:
//   * the phase barrier — ordering of side effects, heavy contention,
//     detection of a peer that dies before arriving;
//   * the barrier-synchronized direct-read lowering — run_spmd on shm must
//     match the serial oracle bit-for-bit while sending zero messages, and
//     its barrier / shared-byte counters must equal the analytic model's
//     aggregates exactly (the model's exactness contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "exec/collectives.hpp"
#include "exec/threaded.hpp"
#include "hpf/parser.hpp"
#include "model/model.hpp"
#include "nas/driver.hpp"
#include "sim/engine.hpp"
#include "support/diagnostics.hpp"

namespace dhpf {
namespace {

using exec::Backend;
using exec::Channel;
using exec::Task;
using exec::threaded::Options;
using exec::threaded::Stats;

/// One case body over `backend`, run as mp_suite.mp_case on mp and as
/// shm_suite.shm_case on shm.
#define BOTH_BACKENDS(fn, mp_suite, mp_case, shm_suite, shm_case) \
  void fn(Backend backend);                                       \
  TEST(mp_suite, mp_case) { fn(Backend::Mp); }                    \
  TEST(shm_suite, shm_case) { fn(Backend::Shm); }                 \
  void fn(Backend backend)

using exec::threaded::run;

/// run() with default options.
double run(Backend backend, int nranks, const std::function<Task(Channel&)>& body,
           Stats* stats = nullptr) {
  return run(backend, nranks, Options{}, body, stats);
}

// Run `body` on the sim backend and return nothing; helper for parity tests.
void run_on_sim(int nranks, const std::function<Task(Channel&)>& body) {
  sim::Engine engine(nranks, exec::Machine::sp2());
  engine.run([&](sim::Process& p) -> Task { return body(p); });
}

// ------------------------------------------------------ point-to-point

BOTH_BACKENDS(send_recv_delivers_payload, MpRuntime, SendRecvDeliversPayload, ShmRuntime,
              SendRecvDeliversPayload) {
  std::vector<double> got;
  run(backend, 2, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 7, {1.5, 2.5, 3.5});
    } else {
      got = co_await p.recv(0, 7);
    }
    co_return;
  });
  EXPECT_EQ(got, (std::vector<double>{1.5, 2.5, 3.5}));
}

TEST(MpRuntime, SameSourceSameTagIsFifo) {
  constexpr int kN = 200;
  std::vector<double> seq;
  run(Backend::Mp, 2, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      for (int i = 0; i < kN; ++i) p.send(1, 3, {static_cast<double>(i)});
    } else {
      for (int i = 0; i < kN; ++i) {
        auto v = co_await p.recv(0, 3);
        seq.push_back(v.at(0));
      }
    }
    co_return;
  });
  ASSERT_EQ(seq.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) EXPECT_EQ(seq[static_cast<std::size_t>(i)], i);
}

TEST(MpRuntime, TagsMatchIndependentlyOfArrivalOrder) {
  std::vector<double> first, second;
  run(Backend::Mp, 2, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 1, {10.0});
      p.send(1, 2, {20.0});
    } else {
      second = co_await p.recv(0, 2);  // posted before tag 1 is drained
      first = co_await p.recv(0, 1);
    }
    co_return;
  });
  EXPECT_EQ(second, std::vector<double>{20.0});
  EXPECT_EQ(first, std::vector<double>{10.0});
}

TEST(MpRuntime, IrecvWaitCompletesLikeRecv) {
  std::vector<double> got;
  run(Backend::Mp, 2, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      p.send(1, 9, {42.0});
    } else {
      exec::Request req = p.irecv(0, 9);
      got = co_await p.wait(req);
    }
    co_return;
  });
  EXPECT_EQ(got, std::vector<double>{42.0});
}

// Wildcard policy on real threads: arrival order across sources is up to
// the OS scheduler, so assert only that every message is received once.
TEST(MpRuntime, WildcardReceivesEachMessageExactlyOnce) {
  constexpr int kRanks = 6;
  std::vector<double> got;
  run(Backend::Mp, kRanks, [&](Channel& p) -> Task {
    if (p.rank() == 0) {
      for (int i = 1; i < kRanks; ++i) {
        auto v = co_await p.recv(exec::kAnySource, 4);
        got.push_back(v.at(0));
      }
    } else {
      p.send(0, 4, {static_cast<double>(p.rank())});
    }
    co_return;
  });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<double>{1, 2, 3, 4, 5}));
}

// On the simulator the same wildcard program is deterministic: matching is
// by earliest virtual arrival with ties broken by source rank, so repeated
// runs give the same order. (This is the other half of the policy above.)
TEST(MpVsSim, WildcardOrderIsDeterministicOnSim) {
  auto once = [] {
    std::vector<double> got;
    sim::Engine engine(4, exec::Machine::sp2());
    engine.run([&](sim::Process& p) -> Task {
      if (p.rank() == 0) {
        p.compute(1e6);  // all sends arrive before the first receive
        for (int i = 1; i < 4; ++i) {
          auto v = co_await p.recv(exec::kAnySource, 4);
          got.push_back(v.at(0));
        }
      } else {
        p.compute(1e3 * p.rank());  // stagger send times
        p.send(0, 4, {static_cast<double>(p.rank())});
      }
      co_return;
    });
    return got;
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a, b);
  // Earliest virtual arrival first: rank 1 computed least, so sent first.
  EXPECT_EQ(a, (std::vector<double>{1.0, 2.0, 3.0}));
}

// ---------------------------------------------------------- collectives

BOTH_BACKENDS(collectives_parity_with_sim, MpCollectives, ParityWithSim, ShmCollectives,
              ParityWithSim) {
  // Five ranks (non-power-of-two exercises the binomial trees' edge cases);
  // every rank contributes rank-dependent data, every rank checks results.
  constexpr int kRanks = 5;
  auto contribution = [](int r) {
    return std::vector<double>{1.0 + r, 0.5 * r, r == 3 ? 100.0 : -1.0};
  };
  struct Results {
    std::vector<std::vector<double>> allreduce_sum, allreduce_max, bcast;
    std::vector<double> reduce_on_root;
  };
  auto run_with = [&](auto&& runner) {
    Results res;
    res.allreduce_sum.resize(kRanks);
    res.allreduce_max.resize(kRanks);
    res.bcast.resize(kRanks);
    runner([&](Channel& p) -> Task {
      const auto r = static_cast<std::size_t>(p.rank());
      auto sum = contribution(p.rank());
      co_await exec::allreduce(p, sum, exec::ReduceOp::Sum);
      res.allreduce_sum[r] = sum;

      auto mx = contribution(p.rank());
      co_await exec::allreduce(p, mx, exec::ReduceOp::Max);
      res.allreduce_max[r] = mx;

      std::vector<double> b;
      if (p.rank() == 2) b = {3.25, -7.5};
      co_await exec::broadcast(p, b, 2);
      res.bcast[r] = b;

      auto red = contribution(p.rank());
      co_await exec::reduce(p, red, exec::ReduceOp::Sum, 1);
      if (p.rank() == 1) res.reduce_on_root = red;

      co_await exec::barrier(p);
      co_return;
    });
    return res;
  };

  const Results on_sim =
      run_with([&](const std::function<Task(Channel&)>& body) { run_on_sim(kRanks, body); });
  const Results on_threads = run_with(
      [&](const std::function<Task(Channel&)>& body) { run(backend, kRanks, body); });

  // Bit-identical: the collectives' receives all name their sources, so the
  // combine order is the same tree on every backend.
  EXPECT_EQ(on_sim.allreduce_sum, on_threads.allreduce_sum);
  EXPECT_EQ(on_sim.allreduce_max, on_threads.allreduce_max);
  EXPECT_EQ(on_sim.bcast, on_threads.bcast);
  EXPECT_EQ(on_sim.reduce_on_root, on_threads.reduce_on_root);
  // Every rank agrees on the allreduce result.
  for (int r = 1; r < kRanks; ++r) {
    EXPECT_EQ(on_threads.allreduce_sum[static_cast<std::size_t>(r)], on_threads.allreduce_sum[0]);
    EXPECT_EQ(on_threads.allreduce_max[static_cast<std::size_t>(r)], on_threads.allreduce_max[0]);
  }
}

TEST(MpCollectives, BarrierOrdersSideEffects) {
  constexpr int kRanks = 4;
  std::atomic<int> entered{0};
  std::vector<int> seen_at_exit(kRanks, -1);
  run(Backend::Mp, kRanks, [&](Channel& p) -> Task {
    entered.fetch_add(1);
    co_await exec::barrier(p);
    // After the barrier every rank must observe all kRanks entries.
    seen_at_exit[static_cast<std::size_t>(p.rank())] = entered.load();
    co_return;
  });
  for (int r = 0; r < kRanks; ++r) EXPECT_EQ(seen_at_exit[static_cast<std::size_t>(r)], kRanks);
}

// ------------------------------------------------------------- barrier

TEST(ShmBarrier, OrdersSideEffects) {
  constexpr int kRanks = 8;
  std::atomic<int> entered{0};
  std::vector<int> seen_at_exit(kRanks, -1);
  run(Backend::Shm, kRanks, [&](Channel& p) -> Task {
    entered.fetch_add(1);
    shm::barrier(p);
    // After the barrier every rank must observe all kRanks entries.
    seen_at_exit[static_cast<std::size_t>(p.rank())] = entered.load();
    co_return;
  });
  for (int r = 0; r < kRanks; ++r)
    EXPECT_EQ(seen_at_exit[static_cast<std::size_t>(r)], kRanks);
}

TEST(ShmBarrier, ManyRoundsUnderContentionStayInLockstep) {
  // The sense-reversing barrier must not let a fast rank lap a slow one:
  // after every round each rank checks that nobody has started the next
  // round yet (the generation observed at exit equals its own round).
  constexpr int kRanks = 16;
  constexpr int kRounds = 200;
  std::vector<std::atomic<int>> round(kRanks);
  for (auto& r : round) r.store(0);
  bool ok = true;
  Stats stats;
  run(Backend::Shm, kRanks, [&](Channel& p) -> Task {
    const auto me = static_cast<std::size_t>(p.rank());
    for (int t = 0; t < kRounds; ++t) {
      round[me].store(t, std::memory_order_relaxed);
      shm::barrier(p);
      // Between the two barriers of a round, every rank must be in round t.
      for (int q = 0; q < kRanks; ++q)
        if (round[static_cast<std::size_t>(q)].load(std::memory_order_relaxed) != t)
          ok = false;
      shm::barrier(p);
    }
    co_return;
  }, &stats);
  EXPECT_TRUE(ok);
  // Global episode count: two barriers per round, regardless of rank count.
  EXPECT_EQ(stats.barriers, static_cast<std::size_t>(2 * kRounds));
}

TEST(ShmBarrier, PeerDeathBeforeBarrierIsDetected) {
  // Rank 1 throws before ever reaching the barrier; rank 0 is parked at it.
  // The abort must release rank 0 (no hang) and report rank 1's failure.
  Options opt;
  opt.recv_timeout_s = 0.0;
  opt.watchdog_period_s = 0.02;
  try {
    run(Backend::Shm, 2, opt, [&](Channel& p) -> Task {
      if (p.rank() == 1) fail("test", "boom");
      shm::barrier(p);
      co_return;
    });
    FAIL() << "expected rank failure to propagate";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
  }
}

TEST(ShmBarrier, PeerExitWithoutBarrierIsDeadlock) {
  // Rank 1 returns cleanly without joining the barrier: rank 0 can never be
  // released, which the watchdog must classify as deadlock (a barrier wait
  // whose generation can no longer advance), not leave hanging.
  Options opt;
  opt.recv_timeout_s = 0.0;  // only the watchdog may intervene
  opt.watchdog_period_s = 0.02;
  try {
    run(Backend::Shm, 2, opt, [&](Channel& p) -> Task {
      if (p.rank() == 0) shm::barrier(p);
      co_return;
    });
    FAIL() << "expected deadlock to be detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos) << e.what();
  }
}

TEST(ShmBarrier, TimeoutRaisesInsteadOfHanging) {
  Options opt;
  opt.recv_timeout_s = 0.05;
  opt.watchdog_period_s = 0.0;  // timeout path, not the watchdog
  try {
    run(Backend::Shm, 2, opt, [&](Channel& p) -> Task {
      if (p.rank() == 0) shm::barrier(p);  // rank 1 never arrives
      co_return;
    });
    FAIL() << "expected barrier timeout";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("barrier timeout"), std::string::npos) << e.what();
  }
}

TEST(ShmBarrier, RejectsForeignChannels) {
  // barrier()/note_shared_read() are shm-run primitives; handing them a sim
  // or mp channel must raise, not silently no-op or synchronize (codegen
  // relies on this, and mp shares the runtime that implements them).
  sim::Engine engine(1, exec::Machine::sp2());
  engine.run([&](sim::Process& p) -> Task {
    EXPECT_FALSE(shm::is_shm_channel(p));
    EXPECT_THROW(shm::barrier(p), Error);
    EXPECT_THROW(shm::note_shared_read(p, 8), Error);
    co_return;
  });
  Stats stats;
  run(Backend::Mp, 2, [&](Channel& p) -> Task {
    EXPECT_FALSE(shm::is_shm_channel(p));
    EXPECT_THROW(shm::barrier(p), Error);
    EXPECT_THROW(shm::note_shared_read(p, 8), Error);
    co_return;
  }, &stats);
  EXPECT_EQ(stats.barriers, 0u);
  EXPECT_EQ(stats.shared_read_bytes, 0u);
  run(Backend::Shm, 1, [&](Channel& p) -> Task {
    EXPECT_TRUE(shm::is_shm_channel(p));
    co_return;
  });
}

// ------------------------------------------------------ failure handling

BOTH_BACKENDS(deadlock_watchdog_fires, MpRuntime, DeadlockWatchdogFires, ShmRuntime,
              DeadlockWatchdogFires) {
  Options opt;
  opt.recv_timeout_s = 0.0;       // only the watchdog may intervene
  opt.watchdog_period_s = 0.02;
  try {
    run(backend, 2, opt, [&](Channel& p) -> Task {
      // Both ranks wait for a message nobody sends.
      co_await p.recv(1 - p.rank(), 99);
      co_return;
    });
    FAIL() << "expected deadlock to be detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos) << e.what();
  }
}

TEST(MpRuntime, WatchdogPeriodFromEnv) {
  using exec::threaded::watchdog_period_from_env;
  // Guard against a leaked setting from the environment running the tests.
  unsetenv("DHPF_WATCHDOG_MS");
  EXPECT_DOUBLE_EQ(watchdog_period_from_env(0.05), 0.05);

  setenv("DHPF_WATCHDOG_MS", "100", 1);
  EXPECT_DOUBLE_EQ(watchdog_period_from_env(0.05), 0.1);
  setenv("DHPF_WATCHDOG_MS", "2.5", 1);
  EXPECT_DOUBLE_EQ(watchdog_period_from_env(0.05), 0.0025);

  // 0 (or any non-positive value) disables the watchdog entirely.
  setenv("DHPF_WATCHDOG_MS", "0", 1);
  EXPECT_DOUBLE_EQ(watchdog_period_from_env(0.05), 0.0);
  setenv("DHPF_WATCHDOG_MS", "-3", 1);
  EXPECT_DOUBLE_EQ(watchdog_period_from_env(0.05), 0.0);

  // Unparseable values fall back rather than silently disabling.
  for (const char* bad : {"", "fast", "12xyz"}) {
    setenv("DHPF_WATCHDOG_MS", bad, 1);
    EXPECT_DOUBLE_EQ(watchdog_period_from_env(0.05), 0.05) << "value: " << bad;
  }
  unsetenv("DHPF_WATCHDOG_MS");
}

TEST(MpRuntime, WatchdogEnvOverrideAppliesToRun) {
  // A deadlocked pair with the watchdog configured off in Options but
  // forced on (fast) through the environment must still be detected.
  setenv("DHPF_WATCHDOG_MS", "20", 1);
  Options opt;
  opt.recv_timeout_s = 0.0;
  opt.watchdog_period_s = 0.0;  // env wins over this
  try {
    run(Backend::Mp, 2, opt, [&](Channel& p) -> Task {
      co_await p.recv(1 - p.rank(), 99);
      co_return;
    });
    unsetenv("DHPF_WATCHDOG_MS");
    FAIL() << "expected deadlock to be detected";
  } catch (const Error& e) {
    unsetenv("DHPF_WATCHDOG_MS");
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos) << e.what();
  }
}

TEST(MpRuntime, RecvTimeoutRaisesInsteadOfHanging) {
  Options opt;
  opt.recv_timeout_s = 0.05;
  opt.watchdog_period_s = 0.0;  // timeout path, not the watchdog
  try {
    run(Backend::Mp, 2, opt, [&](Channel& p) -> Task {
      if (p.rank() == 0) co_await p.recv(1, 5);  // rank 1 never sends
      co_return;
    });
    FAIL() << "expected recv timeout";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("timeout"), std::string::npos) << e.what();
  }
}

TEST(MpRuntime, RankExceptionIsReportedWithRank) {
  try {
    run(Backend::Mp, 3, [&](Channel& p) -> Task {
      if (p.rank() == 1) fail("test", "boom");
      co_await exec::barrier(p);
      co_return;
    });
    FAIL() << "expected rank failure to propagate";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------ statistics

TEST(MpRuntime, StatsCountTrafficPerRank) {
  Stats stats;
  const double wall = run(Backend::Mp, 2, [&](Channel& p) -> Task {
    p.set_phase("exchange");
    if (p.rank() == 0) {
      p.send(1, 1, {1.0, 2.0});
    } else {
      (void)co_await p.recv(0, 1);
    }
    p.set_phase("");
    co_return;
  }, &stats);
  EXPECT_GT(wall, 0.0);
  EXPECT_EQ(stats.wall_seconds, wall);
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.bytes, 2 * sizeof(double));
  ASSERT_EQ(stats.ranks.size(), 2u);
  EXPECT_EQ(stats.ranks[0].sends, 1u);
  EXPECT_EQ(stats.ranks[0].recvs, 0u);
  EXPECT_EQ(stats.ranks[1].recvs, 1u);
  EXPECT_EQ(stats.ranks[1].bytes_received, 2 * sizeof(double));
  // The labelled phase appears in the real-time breakdown.
  bool found = false;
  for (const auto& row : stats.phases) found = found || row.phase == "exchange";
  EXPECT_TRUE(found);
}

TEST(ShmRuntime, StatsCountBarriersAndSharedReads) {
  Stats stats;
  const double wall = run(Backend::Shm, 4, [&](Channel& p) -> Task {
    p.set_phase("exchange");
    shm::barrier(p);
    shm::note_shared_read(p, 64);
    shm::barrier(p);
    p.set_phase("");
    co_return;
  }, &stats);
  EXPECT_GT(wall, 0.0);
  EXPECT_EQ(stats.wall_seconds, wall);
  EXPECT_EQ(stats.barriers, 2u);  // global episodes, not per-rank entries
  EXPECT_EQ(stats.shared_read_bytes, 4u * 64u);
  ASSERT_EQ(stats.ranks.size(), 4u);
  for (const auto& r : stats.ranks) {
    EXPECT_EQ(r.barriers, 2u);
    EXPECT_EQ(r.shared_read_bytes, 64u);
  }
  bool found = false;
  for (const auto& row : stats.phases) found = found || row.phase == "exchange";
  EXPECT_TRUE(found);
}

BOTH_BACKENDS(sleep_compute_mode_realizes_modelled_time, MpRuntime,
              SleepComputeModeRealizesModelledTime, ShmRuntime,
              SleepComputeModeRealizesModelledTime) {
  Options opt;
  opt.compute_mode = exec::threaded::ComputeMode::Sleep;
  opt.time_scale = 1.0;
  Stats stats;
  const double wall = run(backend, 2, opt, [&](Channel& p) -> Task {
    p.elapse(0.03);  // 30 ms of modelled compute, slept for real
    co_await exec::barrier(p);
    co_return;
  }, &stats);
  EXPECT_GE(wall, 0.025);
  EXPECT_NEAR(stats.ranks[0].compute_seconds, 0.03, 1e-12);  // modelled accounting
}

// ------------------------------------------- run_spmd backend cross-check
//
// The generated SPMD programs must execute identically on every backend
// and match the serial oracle bit-for-bit (max_err == 0: the runs perform
// the same floating-point operations in the same order, and NaN-poisoning
// turns any missing message or read into a hard failure). On shm they
// exchange no messages at all: every fetch/write-back becomes
// barrier-fenced direct reads, and the barrier / shared-byte counters must
// equal the model's exact aggregates.

/// Overrides selected CPs before communication is derived (a test's own,
/// non-default partitioning choice).
using CpOverride = std::function<void(hpf::Program&, cp::CpResult&)>;

codegen::SpmdResult compile_and_run(const std::string& src, Backend backend,
                                    model::Prediction* pred = nullptr,
                                    const CpOverride& force = {}) {
  hpf::Program prog = hpf::parse(src);
  cp::CpResult cps = cp::select_cps(prog);
  if (force) force(prog, cps);
  comm::CommPlan plan = comm::generate_comm(prog, cps);
  codegen::SpmdOptions opt;
  opt.backend = backend;
  if (pred != nullptr)
    *pred = model::predict(prog, cps, plan, exec::Machine::sp2(), opt.flops_per_instance);
  return codegen::run_spmd(prog, cps, plan, exec::Machine::sp2(), opt);
}

std::string stencil_1d(int nprocs) {
  return R"(
    processors P()" + std::to_string(nprocs) + R"()
    array a(64) distribute (block:0) onto P
    array b(64) distribute (block:0) onto P
    procedure main()
      do t = 1, 3
        do i = 1, 62
          a(i) = b(i-1) + b(i+1)
        enddo
        do i = 1, 62
          b(i) = a(i)
        enddo
      enddo
    end
  )";
}

// §4.1 privatizable-array example (paper Fig 4.1 shape).
const char* kFig41 = R"(
  processors P(2, 2)
  array lhs(12, 12, 5) distribute (block:0, block:1, *) onto P
  array u(12, 12) distribute (block:0, block:1) onto P
  array cv(12)
  procedure main()
    do[independent, new(cv)] k = 1, 10
      do j = 0, 11
        cv(j) = u(j, k)
      enddo
      do j = 1, 10
        lhs(j, k, 2) = cv(j-1) + cv(j) + cv(j+1)
      enddo
    enddo
  end
)";

// §4.2 LOCALIZE example (paper Fig 4.2 shape).
const char* kFig42 = R"(
  processors P(2, 2)
  array rhs(12, 12, 5) distribute (block:0, block:1, *) onto P
  array rho_i(12, 12) distribute (block:0, block:1) onto P
  array us(12, 12) distribute (block:0, block:1) onto P
  array u(12, 12) distribute (block:0, block:1) onto P
  procedure main()
    do[independent, localize(rho_i, us)] onetrip = 1, 1
      do j = 0, 11
        do i = 0, 11
          rho_i(i, j) = u(i, j)
          us(i, j) = u(i, j) + 1
        enddo
      enddo
      do j = 1, 10
        do i = 1, 10
          rhs(i, j, 1) = rho_i(i-1, j) + rho_i(i+1, j) + rho_i(i, j-1) + rho_i(i, j+1)
          rhs(i, j, 2) = us(i-1, j) + us(i+1, j) + us(i, j-1) + us(i, j+1)
        enddo
      enddo
    enddo
  end
)";

struct SimAndThreads {
  codegen::SpmdResult sim, threads;
};

/// Run `src` on sim and on `backend`: both match the serial oracle bit for
/// bit and execute the same statement instances on every rank. With `pred`,
/// the model's prediction for the plan is stored there.
SimAndThreads expect_matches_sim(const std::string& src, Backend backend,
                                 const CpOverride& force = {},
                                 model::Prediction* pred = nullptr) {
  SimAndThreads out{compile_and_run(src, Backend::Sim, nullptr, force),
                    compile_and_run(src, backend, pred, force)};
  EXPECT_EQ(out.sim.max_err, 0.0);
  EXPECT_EQ(out.threads.max_err, 0.0);
  EXPECT_EQ(out.sim.instances_per_rank, out.threads.instances_per_rank);
  return out;
}

/// expect_matches_sim, plus the traffic contract: mp sends exactly sim's
/// messages, and shm sends none, reads sim's bytes directly and enters the
/// model's barrier episodes.
void expect_traffic_matches_sim(const std::string& src, Backend backend,
                                const CpOverride& force = {}) {
  model::Prediction pred;
  const SimAndThreads r = expect_matches_sim(src, backend, force, &pred);
  EXPECT_GT(r.sim.stats.messages, 0u);
  if (backend == Backend::Mp) {
    EXPECT_EQ(r.threads.mp_stats.messages, r.sim.stats.messages);
    EXPECT_EQ(r.threads.mp_stats.bytes, r.sim.stats.bytes);
  } else {
    EXPECT_EQ(r.threads.shm_stats.messages, 0u);
    EXPECT_EQ(r.threads.shm_stats.shared_read_bytes, r.sim.stats.bytes);
    EXPECT_EQ(r.threads.shm_stats.barriers, pred.barrier_episodes);
  }
}

BOTH_BACKENDS(stencil_1d_matches_oracle, MpSpmd, Stencil1DMatchesOracleAt2To16Ranks, ShmSpmd,
              Stencil1DMatchesOracleAt2To16Ranks) {
  for (int nprocs : {2, 4, 8, 16}) {
    SCOPED_TRACE("nprocs=" + std::to_string(nprocs));
    const SimAndThreads r = expect_matches_sim(stencil_1d(nprocs), backend);
    EXPECT_GT(r.threads.wall_seconds, 0.0);
    // mp sends the halo as messages; shm reads exactly those bytes straight
    // out of the owners' storage between barriers and sends nothing.
    const bool shm = backend == Backend::Shm;
    const Stats& st = shm ? r.threads.shm_stats : r.threads.mp_stats;
    EXPECT_EQ(st.messages, shm ? 0u : r.sim.stats.messages);
    EXPECT_EQ(st.bytes + st.shared_read_bytes, r.sim.stats.bytes);
    EXPECT_EQ(st.barriers > 0, shm);
  }
}

TEST(ShmSpmd, CountersMatchModelExactly) {
  // The exactness contract: the model's barrier_episodes equals the
  // runtime's global barrier count, and its total comm bytes equal the
  // shared bytes actually read (every wire byte becomes one direct read).
  for (const std::string& src : {stencil_1d(4), std::string(kFig41), std::string(kFig42)}) {
    model::Prediction pred;
    const auto r = compile_and_run(src, Backend::Shm, &pred);
    EXPECT_EQ(r.shm_stats.barriers, pred.barrier_episodes);
    EXPECT_EQ(r.shm_stats.shared_read_bytes, pred.bytes);
  }
}

BOTH_BACKENDS(fig41_matches_oracle, MpSpmd, Fig41PrivatizableMatchesOracleOnBothBackends,
              ShmSpmd, Fig41PrivatizableMatchesOracle) {
  expect_matches_sim(kFig41, backend);
}

BOTH_BACKENDS(fig42_matches_oracle, MpSpmd, Fig42LocalizeMatchesOracleOnBothBackends, ShmSpmd,
              Fig42LocalizeMatchesOracle) {
  expect_matches_sim(kFig42, backend);
}

// The forced non-owner CP of WriteBack.EmittedForPureNonOwnerWrites: the
// statement runs on the home of b(i) and writes a(i+1), so every block's
// last value is written back to its owner.
const char* kWriteBack = R"(
  processors P(4)
  array a(24) distribute (block:0) onto P
  array b(24) distribute (block:0) onto P
  procedure main()
    do i = 1, 22
      a(i+1) = b(i)
    enddo
  end
)";

void force_non_owner_cp(hpf::Program& prog, cp::CpResult& cps) {
  const auto& stmt = prog.main()->body[0]->loop().body[0]->assign();
  cps.stmts.at(stmt.id).cp = cp::CP::on_home(stmt.rhs[0]);
}

BOTH_BACKENDS(write_back_matches_oracle, MpSpmd, WriteBackMatchesOracle, ShmSpmd,
              WriteBackMatchesOracle) {
  expect_traffic_matches_sim(kWriteBack, backend, force_non_owner_cp);
}

// A 2-D stencil on P(2, 2) with diagonal reads: every rank exchanges with
// all three peers in each of the two time steps.
const char* kStencil2D = R"(
  processors P(2, 2)
  array a(16, 16) distribute (block:0, block:1) onto P
  array b(16, 16) distribute (block:0, block:1) onto P
  procedure main()
    do t = 1, 2
      do j = 1, 14
        do i = 1, 14
          a(i, j) = b(i-1, j-1) + b(i-1, j+1) + b(i+1, j-1) + b(i+1, j+1) + b(i, j)
        enddo
      enddo
      do j = 1, 14
        do i = 1, 14
          b(i, j) = a(i, j)
        enddo
      enddo
    enddo
  end
)";

BOTH_BACKENDS(stencil_2d_matches_oracle, MpSpmd, Stencil2DSeveralPeersMatchesOracle, ShmSpmd,
              Stencil2DSeveralPeersMatchesOracle) {
  expect_traffic_matches_sim(kStencil2D, backend);
}

// ------------------------------------------- NAS variants on real threads
//
// The NAS node programs are message-passing programs; on shm they run
// unchanged over the mailbox path (the gather fields stay disjoint per
// rank), so this pins full-application parity on both threaded backends.

nas::RunResult run_nas(nas::Variant v, Backend backend) {
  nas::Problem pb{nas::App::SP, 12, 2, 0.0};
  nas::DriverOptions opt;
  opt.backend = backend;
  return nas::run_variant(v, pb, 4, exec::Machine::sp2(), opt);
}

BOTH_BACKENDS(nas_dhpf_style_verifies, MpNas, DhpfStyleVariantVerifiesOnRealThreads, ShmNas,
              DhpfStyleVariantVerifiesOnSharedMemoryThreads) {
  const nas::RunResult r = run_nas(nas::Variant::DhpfStyle, backend);
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_err, 1e-10);
  EXPECT_GT(r.wall_seconds, 0.0);
  EXPECT_GT(r.stats.messages, 0u);
}

BOTH_BACKENDS(nas_hand_mpi_verifies, MpNas, HandMpiVariantVerifiesOnRealThreads, ShmNas,
              HandMpiVariantVerifiesOnSharedMemoryThreads) {
  const nas::RunResult r = run_nas(nas::Variant::HandMPI, backend);
  EXPECT_TRUE(r.verified);
  EXPECT_LT(r.max_err, 1e-10);
}

// ------------------------------------------------------ backend plumbing

TEST(ShmBackend, ParseAndToStringRoundTrip) {
  for (Backend b : {Backend::Sim, Backend::Mp, Backend::Shm}) {
    Backend parsed = Backend::Sim;
    EXPECT_TRUE(exec::parse_backend(exec::to_string(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend out = Backend::Mp;
  EXPECT_FALSE(exec::parse_backend("tcp", out));
  EXPECT_EQ(out, Backend::Mp);  // unchanged on failure
}

}  // namespace
}  // namespace dhpf
