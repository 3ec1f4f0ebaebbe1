// Differential oracle for dhpf::verify. check() answers every difference
// question over boxes of a folded co-walk (verify::residue). The oracle runs the same
// checks with the point-by-point primitive instead: enumerate the points of
// `need` and test each one against every cover with contains(). The two
// reports must be identical: check, severity, message (with its instance,
// element and byte counts) and every witness field. The inputs are the
// regression corpus, 200 generated programs, and every mutation-harness
// site of each, so the erroneous plans are covered as well as the clean ones.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/driver.hpp"
#include "fuzz/generator.hpp"
#include "verify/mutate.hpp"
#include "verify/verify.hpp"

namespace dhpf::verify {
namespace {

using iset::i64;

Residue enumerate_residue(const iset::Set& need, const std::vector<i64>& v,
                          const std::vector<Cover>& covers) {
  Residue r;
  need.enumerate(v, [&](const std::vector<i64>& pt) {
    for (const Cover& c : covers)
      if (c.set->contains(pt, *c.params)) return;
    ++r.count;
    if (!r.least) r.least = pt;
  });
  return r;
}

struct Tally {
  std::size_t plans = 0;
  std::size_t errors = 0;
  std::size_t warnings = 0;
};

void expect_same(const CompiledPlan& plan, const std::string& what, Tally& tally) {
  const Report fast = check(plan);
  const Report oracle = check_with(plan, enumerate_residue);
  EXPECT_EQ(fast.to_json(), oracle.to_json()) << what;
  ++tally.plans;
  tally.errors += oracle.errors();
  tally.warnings += oracle.warnings();
}

void expect_same_under_mutation(const std::string& source, const std::string& what,
                                Tally& tally) {
  hpf::Program prog;
  codegen::CompileResult r = codegen::compile_source(source, &prog);
  const CompiledPlan plan = bind(prog, std::move(r.cps), std::move(r.plan));
  expect_same(plan, what, tally);
  for (const MutationSite& site : all_mutation_sites(plan))
    expect_same(mutate(plan, site), what + " / " + site.describe, tally);
}

TEST(VerifyOracle, CorpusAndEveryMutationMatchEnumeration) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(DHPF_SOURCE_DIR "/tests/corpus"))
    if (e.path().extension() == ".hpf") files.push_back(e.path());
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u) << "corpus went missing?";
  Tally tally;
  for (const auto& f : files) {
    std::ifstream in(f);
    std::stringstream text;
    text << in.rdbuf();
    expect_same_under_mutation(text.str(), f.filename().string(), tally);
  }
  EXPECT_GT(tally.errors, 0u) << "no mutation produced an error — vacuous comparison";
}

/// Generated programs 1..200 in blocks of 25 seeds, so ctest can run the
/// blocks in parallel.
class VerifyOracleGenerated : public testing::TestWithParam<int> {};

TEST_P(VerifyOracleGenerated, EveryMutationMatchesEnumeration) {
  Tally tally;
  const int first = 25 * GetParam() + 1;
  for (int seed = first; seed < first + 25; ++seed)
    expect_same_under_mutation(fuzz::generate(static_cast<std::uint64_t>(seed)).source,
                               "seed " + std::to_string(seed), tally);
  // Non-vacuous: mutations produce errors, widened messages dead-comm warnings.
  EXPECT_GT(tally.plans, 100u);
  EXPECT_GT(tally.errors, 100u);
  EXPECT_GT(tally.warnings, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyOracleGenerated, testing::Range(0, 8));

}  // namespace
}  // namespace dhpf::verify
