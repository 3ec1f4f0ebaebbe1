#include <gtest/gtest.h>

#include "analysis/dependence.hpp"
#include "analysis/sets.hpp"
#include "hpf/parser.hpp"

namespace dhpf::analysis {
namespace {

using hpf::parse;
using hpf::Program;

// --------------------------------------------------------------- sets

TEST(Sets, OwnedSetBlock1D) {
  Program prog = parse(R"(
    processors P(4)
    array a(16) distribute (block:0) onto P
    procedure main()
      a(0) = a(1)
    end
  )");
  auto params = make_params(prog);
  EXPECT_EQ(params.size(), 2u);  // lb0, ub0
  auto owned = owned_set(*prog.find_array("a"), params);
  // rank 1: block size 4 -> [4, 7]
  auto vals = param_values_for_rank(prog, 1);
  EXPECT_EQ(vals, (std::vector<iset::i64>{4, 7}));
  EXPECT_EQ(owned.cardinality(vals), 4u);
  EXPECT_TRUE(owned.contains({5}, vals));
  EXPECT_FALSE(owned.contains({3}, vals));
}

TEST(Sets, OwnedSetRespectsTemplateOffset) {
  Program prog = parse(R"(
    processors P(4)
    array a(15) distribute (block:0) onto P template T offset (1)
    array b(16) distribute (block:0) onto P template T
    procedure main()
      a(0) = b(1)
    end
  )");
  auto params = make_params(prog);
  auto vals = param_values_for_rank(prog, 0);  // template extent 16 -> [0,3]
  auto owned_a = owned_set(*prog.find_array("a"), params);
  auto owned_b = owned_set(*prog.find_array("b"), params);
  // a(i) lives at template index i+1: rank 0 owns a(0..2) and b(0..3).
  EXPECT_EQ(owned_a.cardinality(vals), 3u);
  EXPECT_EQ(owned_b.cardinality(vals), 4u);
  EXPECT_TRUE(owned_a.contains({2}, vals));
  EXPECT_FALSE(owned_a.contains({3}, vals));
}

TEST(Sets, BlocksPartitionData) {
  Program prog = parse(R"(
    processors P(3)
    array a(10) distribute (block:0) onto P
    procedure main()
      a(0) = a(1)
    end
  )");
  auto params = make_params(prog);
  auto owned = owned_set(*prog.find_array("a"), params);
  std::size_t total = 0;
  for (int r = 0; r < 3; ++r) total += owned.cardinality(param_values_for_rank(prog, r));
  EXPECT_EQ(total, 10u);  // partition of unity
}

TEST(Sets, IterationSpaceTriangular) {
  Program prog = parse(R"(
    array a(10, 10)
    procedure main()
      do i = 0, 9
        do j = 0, i
          a(i, j) = a(j, i)
        enddo
      enddo
    end
  )");
  const auto& li = prog.main()->body[0]->loop();
  const auto& lj = li.body[0]->loop();
  auto params = make_params(prog);
  IterSpace is = iteration_space({&li, &lj}, params);
  EXPECT_EQ(iset::Set(is.bounds).cardinality({}), 55u);
}

TEST(Sets, SubscriptMapEvaluates) {
  Program prog = parse(R"(
    array a(10, 10)
    procedure main()
      do i = 1, 8
        a(i, i-1) = a(i, i)
      enddo
    end
  )");
  const auto& li = prog.main()->body[0]->loop();
  auto params = make_params(prog);
  IterSpace is = iteration_space({&li}, params);
  const auto& lhs = li.body[0]->assign().lhs;
  auto m = subscript_map(is, lhs.subs, params);
  auto out = m.eval({5}, {});
  EXPECT_EQ(out, (std::vector<iset::i64>{5, 4}));
}

// --------------------------------------------------------- dependences

TEST(Dependence, LoopIndependentFlow) {
  // Fig 5.1 pattern: S0 writes cv(j), S1 reads cv(j) in the same iteration.
  Program prog = parse(R"(
    array cv(16)
    array u(16)
    procedure main()
      do j = 1, 14
        cv(j) = u(j)
        u(j) = cv(j)
      enddo
    end
  )");
  const auto& loop = prog.main()->body[0]->loop();
  auto deps = loop_independent_deps(loop, {});
  bool found = false;
  for (const auto& e : deps)
    if (e.array->name == "cv" && e.kind == DepKind::Flow && e.loop_independent) found = true;
  EXPECT_TRUE(found);
}

TEST(Dependence, CarriedFlowAtCorrectLevel) {
  Program prog = parse(R"(
    array a(16)
    procedure main()
      do j = 1, 14
        a(j) = a(j-1)
      enddo
    end
  )");
  const auto& loop = prog.main()->body[0]->loop();
  auto deps = dependences_in_loop(loop, {});
  bool carried = false;
  for (const auto& e : deps)
    if (e.kind == DepKind::Flow && !e.loop_independent && e.carried_level == 0) carried = true;
  EXPECT_TRUE(carried);
}

TEST(Dependence, NoDependenceBetweenDisjointRegions) {
  Program prog = parse(R"(
    array a(20)
    procedure main()
      do j = 0, 4
        a(j) = a(j) + 1
        a(j+10) = a(j+10) + 1
      enddo
    end
  )");
  const auto& loop = prog.main()->body[0]->loop();
  auto deps = dependences_in_loop(loop, {});
  for (const auto& e : deps) EXPECT_EQ(e.src, e.dst);  // only self conflicts
}

TEST(Dependence, InnerLoopLevelNumbering) {
  Program prog = parse(R"(
    array a(10, 10)
    procedure main()
      do i = 1, 8
        do j = 1, 8
          a(i, j) = a(i, j-1)
        enddo
      enddo
    end
  )");
  const auto& li = prog.main()->body[0]->loop();
  auto deps = dependences_in_loop(li, {});
  bool level1 = false;
  for (const auto& e : deps)
    if (!e.loop_independent && e.carried_level == 1 && e.kind == DepKind::Flow) level1 = true;
  EXPECT_TRUE(level1);
}

TEST(Dependence, AntiAndOutputDetected) {
  Program prog = parse(R"(
    array a(16)
    array b(16)
    procedure main()
      do j = 1, 14
        b(j) = a(j+1)
        a(j) = b(j)
      enddo
    end
  )");
  const auto& loop = prog.main()->body[0]->loop();
  auto deps = dependences_in_loop(loop, {});
  bool anti = false;
  for (const auto& e : deps)
    if (e.kind == DepKind::Anti && e.array->name == "a") anti = true;
  EXPECT_TRUE(anti);
}

// ------------------------------------------------------- privatization

TEST(Privatizable, Fig41PatternIsPrivatizable) {
  // cv defined over [0, 15] then used at j-1, j, j+1 for j in [1, 14]:
  // every use is covered by a same-iteration def.
  Program prog = parse(R"(
    array cv(16)
    array lhs(16)
    procedure main()
      do i = 1, 14
        do j = 0, 15
          cv(j) = lhs(j)
        enddo
        do j = 1, 14
          lhs(j) = cv(j-1) + cv(j) + cv(j+1)
        enddo
      enddo
    end
  )");
  const auto& li = prog.main()->body[0]->loop();
  EXPECT_TRUE(check_privatizable(li, {}, *prog.find_array("cv")));
}

TEST(Privatizable, UseBeyondDefsIsRejected) {
  Program prog = parse(R"(
    array cv(16)
    array lhs(16)
    procedure main()
      do i = 1, 14
        do j = 2, 13
          cv(j) = lhs(j)
        enddo
        do j = 1, 14
          lhs(j) = cv(j-1) + cv(j+1)
        enddo
      enddo
    end
  )");
  const auto& li = prog.main()->body[0]->loop();
  EXPECT_FALSE(check_privatizable(li, {}, *prog.find_array("cv")));
}

TEST(Privatizable, CrossIterationUseIsRejected) {
  // Use in iteration i reads what iteration i wrote — but here the def
  // happens in a *different* scope iteration (i-dependent subscript).
  Program prog = parse(R"(
    array cv(32)
    array lhs(16)
    procedure main()
      do i = 1, 14
        do j = 0, 15
          cv(i) = lhs(j)
        enddo
        do j = 1, 14
          lhs(j) = cv(j)
        enddo
      enddo
    end
  )");
  const auto& li = prog.main()->body[0]->loop();
  EXPECT_FALSE(check_privatizable(li, {}, *prog.find_array("cv")));
}

// ---------------------------------------------------------- call graph

TEST(CallGraph, BottomUpOrder) {
  Program prog = parse(R"(
    array a(8)
    procedure main()
      call middle(a(0))
    end
    procedure middle(a)
      call leaf(a(1))
    end
    procedure leaf(a)
      a(2) = a(3)
    end
  )");
  auto order = bottom_up_procedures(prog);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0]->name, "leaf");
  EXPECT_EQ(order[1]->name, "middle");
  EXPECT_EQ(order[2]->name, "main");
}

TEST(CallGraph, RecursionRejected) {
  Program prog = parse(R"(
    array a(8)
    procedure main()
      call main(a(0))
    end
  )");
  EXPECT_THROW(bottom_up_procedures(prog), dhpf::Error);
}

}  // namespace
}  // namespace dhpf::analysis
