// Large-extent regression: the verifier and the cost model answer their
// point questions over boxes of the folded walk, so their cost follows the
// set structure, not the point count. The 20000 x 20000 BLOCK x BLOCK Jacobi on
// P(2,2) (examples/large/jacobi_20000.hpf, 4e8 iteration points) must verify
// clean and model in bounded memory, a 700 x 700 instance must get the
// every-instance-executed check instead of a skip, and verify plus model
// must visit as many boxes at 20000^2 as at 2000^2 (a deterministic stand-in
// for a wall-clock bound).
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <string>

#include "codegen/driver.hpp"
#include "iset/intern.hpp"
#include "model/model.hpp"
#include "support/metrics.hpp"
#include "verify/verify.hpp"

namespace dhpf {
namespace {

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::string jacobi_source() {
  std::ifstream in(DHPF_SOURCE_DIR "/examples/large/jacobi_20000.hpf");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The same stencil at extent n (the loops run 1..n-2).
std::string jacobi_at(int n) {
  std::string src = jacobi_source();
  for (const auto& [from, to] : {std::pair<std::string, std::string>{"20000", std::to_string(n)},
                                 {"19998", std::to_string(n - 2)}})
    for (std::size_t at = src.find(from); at != std::string::npos;
         at = src.find(from, at + to.size()))
      src.replace(at, from.size(), to);
  return src;
}

TEST(LargeExtent, Jacobi20000VerifiesAndModelsInBoundedMemory) {
  const long before_kb = peak_rss_kb();
  hpf::Program prog;
  codegen::CompileResult r = codegen::compile_source(jacobi_source(), &prog);
  const model::Prediction pred = model::predict(prog, r.cps, r.plan);
  const verify::CompiledPlan plan = verify::bind(prog, std::move(r.cps), std::move(r.plan));
  const verify::Report rep = verify::check(plan);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.warnings(), 0u) << rep.to_string();
  EXPECT_EQ(pred.total_instances, std::size_t{19998} * 19998);
  const long grown_mb = (peak_rss_kb() - before_kb) / 1024;
  EXPECT_LT(grown_mb, 200) << "peak RSS grew by " << grown_mb << " MB";
}

TEST(LargeExtent, Jacobi700RunsTheInstanceCheck) {
  hpf::Program prog;
  codegen::CompileResult r = codegen::compile_source(jacobi_at(700), &prog);
  const verify::CompiledPlan plan = verify::bind(prog, std::move(r.cps), std::move(r.plan));
  const verify::Report rep = verify::check(plan);
  EXPECT_TRUE(rep.diagnostics.empty()) << rep.to_string();

  // ON_HOME b(700, 700) lies outside the template, so no rank executes any
  // of the 698 x 698 instances: the check must run and count every one.
  verify::CompiledPlan broken = plan;
  auto& sc = broken.cps.stmts.begin()->second;
  cp::OnHomeTerm t;
  t.array = sc.stmt->assign().lhs.array;
  t.subs = {cp::SubRange::point(hpf::Subscript::constant(700)),
            cp::SubRange::point(hpf::Subscript::constant(700))};
  sc.cp.terms = {t};
  const verify::Report dropped = verify::check(broken);
  bool found = false;
  for (const auto& d : dropped.diagnostics)
    if (d.check == verify::Check::ReplicaConsistency &&
        d.message.find("drops 487204 instance(s)") != std::string::npos) {
      found = true;
      EXPECT_EQ(d.witness.element, (std::vector<iset::i64>{1, 1}));
    }
  EXPECT_TRUE(found) << dropped.to_string();
}

/// Boxes visited by bind, check and predict on the Jacobi at extent n, from
/// a cold memo (a memo hit would skip a walk).
std::uint64_t verify_and_model_boxes(int n) {
  hpf::Program prog;
  codegen::CompileResult r = codegen::compile_source(jacobi_at(n), &prog);
  iset::memo::clear_caches();
  obs::Registry reg;
  obs::ScopedRegistry scope(reg);
  const model::Prediction pred = model::predict(prog, r.cps, r.plan);
  const verify::CompiledPlan plan = verify::bind(prog, std::move(r.cps), std::move(r.plan));
  EXPECT_TRUE(verify::check(plan).clean());
  EXPECT_EQ(pred.total_instances, static_cast<std::size_t>(n - 2) * (n - 2));
  const auto counters = reg.snapshot().counters;
  const auto it = counters.find("iset.walk_boxes");
  return it == counters.end() ? 0 : it->second;
}

TEST(LargeExtent, VerifyAndModelVisitTheSameBoxesAtAnyExtent) {
  const std::uint64_t small = verify_and_model_boxes(2000);
  const std::uint64_t large = verify_and_model_boxes(20000);
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace dhpf
