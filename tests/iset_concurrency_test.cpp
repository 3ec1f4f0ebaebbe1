// Thread-safety test for the iset intern/memo tables and the parallel
// pass driver — built and run under ThreadSanitizer in CI (the tables are
// sharded-mutex structures and rep ids are lazily published through an
// atomic; TSan sees any missing synchronization the serial suite can't).
//
// Shape: N threads hammer the memoized operations on OVERLAPPING operands
// (same rep ids, so they race on the same shards and memo entries), each
// thread checks its answers against a serial reference computed up front,
// and the interning side is raced too (all threads intern permutations of
// one set and must agree on the node pointer). Finally exec::parallel_for
// itself is exercised: slot outputs must be complete and in order, and a
// thrown iteration must surface exactly once on the caller.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/parallel.hpp"
#include "iset/intern.hpp"
#include "iset/set.hpp"

namespace dhpf::iset {
namespace {

Params no_params;

Set box(i64 lo0, i64 hi0, i64 lo1, i64 hi1) {
  BasicSet bs(2, no_params);
  bs.add_bounds(0, bs.expr_const(lo0), bs.expr_const(hi0));
  bs.add_bounds(1, bs.expr_const(lo1), bs.expr_const(hi1));
  return Set(bs);
}

TEST(IsetConcurrency, SharedMemoTablesUnderContention) {
  memo::set_cache_enabled(true);
  memo::clear_caches();

  // A small pool of operands every thread shares: maximal shard contention.
  std::vector<Set> ops;
  for (i64 k = 0; k < 6; ++k)
    ops.push_back(box(-3 + k, 2 + k, -2, 3 + (k % 2)));

  // Serial reference answers, computed before any concurrency starts.
  struct Ref {
    std::string inter, diff;
    bool empty;
    std::size_t card;
  };
  std::vector<std::vector<Ref>> ref(ops.size(), std::vector<Ref>(ops.size()));
  for (std::size_t i = 0; i < ops.size(); ++i)
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const Set inter = ops[i].intersect(ops[j]);
      const Set diff = ops[i].subtract(ops[j]);
      ref[i][j] = {rep_bytes(inter), rep_bytes(diff), diff.is_empty(),
                   inter.cardinality({})};
    }

  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
          // Stagger the visit order per thread so lookups and stores for
          // the same key genuinely interleave.
          const std::size_t j =
              (i + static_cast<std::size_t>(t + round)) % ops.size();
          const Set inter = ops[i].intersect(ops[j]);
          const Set diff = ops[i].subtract(ops[j]);
          if (rep_bytes(inter) != ref[i][j].inter) failures.fetch_add(1);
          if (rep_bytes(diff) != ref[i][j].diff) failures.fetch_add(1);
          if (diff.is_empty() != ref[i][j].empty) failures.fetch_add(1);
          if (inter.cardinality({}) != ref[i][j].card) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(IsetConcurrency, InterningRacesAgreeOnOneNode) {
  memo::clear_caches();

  // Each thread builds the same mathematical set with a rotated constraint
  // order, interns it, and publishes the node. All pointers must be equal.
  BasicSet proto(2, no_params);
  proto.add_bounds(0, proto.expr_const(0), proto.expr_const(7));
  proto.add_bounds(1, proto.expr_const(-2), proto.expr_const(5));
  proto.add(Constraint::ge0(proto.expr_var(0) + proto.expr_var(1)));
  const std::vector<Constraint> cs = proto.constraints();

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Set>> nodes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        BasicSet bs(2, no_params);
        for (std::size_t k = 0; k < cs.size(); ++k)
          bs.add(cs[(k + static_cast<std::size_t>(t)) % cs.size()]);
        nodes[static_cast<std::size_t>(t)] = intern(Set(bs));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(nodes[0].get(), nodes[static_cast<std::size_t>(t)].get());
}

TEST(IsetConcurrency, FirstWalksOfOneSharedSetRace) {
  // Every thread's first walk of one shared set builds its walk plan; one
  // publishes it and the others must use it. The memo is off so no walk is
  // skipped by a count hit.
  memo::set_cache_enabled(false);
  const Set shared = box(0, 9, 0, 9).unite(box(5, 14, 3, 20));
  const std::size_t ref = Set(shared).cardinality({});
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      if (shared.cardinality({}) != ref) failures.fetch_add(1);
    });
  for (auto& th : threads) th.join();
  memo::set_cache_enabled(true);
  EXPECT_EQ(failures.load(), 0);
}

TEST(IsetConcurrency, ParallelForCompletesEverySlotInOrder) {
  exec::set_pass_parallelism(true);
  constexpr std::size_t kN = 200;
  std::vector<std::size_t> slots(kN, 0);
  exec::parallel_for(kN, [&](std::size_t i) {
    // Real set work per slot, so iterations overlap inside the memo tables.
    const Set a = box(0, static_cast<i64>(i % 7), 0, 3);
    const Set b = box(1, 5, -1, static_cast<i64>(i % 5));
    slots[i] = a.intersect(b).cardinality({}) + i;
  });
  for (std::size_t i = 0; i < kN; ++i) {
    const Set a = box(0, static_cast<i64>(i % 7), 0, 3);
    const Set b = box(1, 5, -1, static_cast<i64>(i % 5));
    EXPECT_EQ(slots[i], a.intersect(b).cardinality({}) + i);
  }
  exec::set_pass_parallelism(false);
}

TEST(IsetConcurrency, ParallelForPropagatesOneException) {
  exec::set_pass_parallelism(true);
  std::atomic<int> ran{0};
  bool threw = false;
  try {
    exec::parallel_for(64, [&](std::size_t i) {
      ran.fetch_add(1);
      if (i == 13) throw std::runtime_error("slot 13");
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "slot 13");
  }
  EXPECT_TRUE(threw);
  EXPECT_LE(ran.load(), 64);
  exec::set_pass_parallelism(false);
}

TEST(IsetConcurrency, NestedParallelForStaysSerial) {
  exec::set_pass_parallelism(true);
  std::atomic<std::size_t> total{0};
  exec::parallel_for(8, [&](std::size_t) {
    // The nested call must run inline on this worker (no pool deadlock).
    exec::parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u);
  exec::set_pass_parallelism(false);
}

}  // namespace
}  // namespace dhpf::iset
