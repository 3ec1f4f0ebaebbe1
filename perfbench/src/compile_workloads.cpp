// checked_compile and large_extent: the one-shot `dhpfc --verify
// --model-report --lint` pipeline, called layer by layer from a cold iset
// memo. checked_compile cycles through seeded fuzz programs (cost set by
// program structure); large_extent runs a fixed set of paper kernels at
// 10^5-10^6 points (cost set by point count).
#include <algorithm>
#include <cstdio>
#include <exception>
#include <numeric>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "fuzz/generator.hpp"
#include "hpf/parser.hpp"
#include "kernels.hpp"
#include "lint/lint.hpp"
#include "model/model.hpp"
#include "verify/plan.hpp"
#include "verify/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dhpf;

std::string Digest::str() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "events=%zu stmts=%zu instances=%zu checks_run=%zu", events,
                stmts, instances, checks_run);
  return buf;
}

Digest known_digest(const json::Value& known, const std::string& section,
                    const std::string& key, bool corrupt) {
  const json::Value& d = known.at(section).at(key);
  Digest out;
  out.events = static_cast<std::size_t>(d.at("events").number());
  out.stmts = static_cast<std::size_t>(d.at("stmts").number());
  out.instances = static_cast<std::size_t>(d.at("instances").number());
  out.checks_run = static_cast<std::size_t>(d.at("checks_run").number());
  if (corrupt) ++out.events;
  return out;
}

void add_iset_metrics(Result& r, const iset::memo::CacheStats& before,
                      const iset::memo::CacheStats& after, double ops) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double n = std::max(ops, 1.0);
  r.layer["iset.memo_hits"] = hits / n;
  r.layer["iset.memo_misses"] = misses / n;
  r.layer["iset.memo_lookups"] = (hits + misses) / n;
  r.layer["iset.memo_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  r.layer["iset.intern_nodes"] =
      static_cast<double>(after.intern_nodes - before.intern_nodes) / n;
  r.layer["iset.evictions"] = static_cast<double>(after.evictions - before.evictions) / n;
}

void add_trace_metrics(Result& r, const Tracer& tracer, double traced_ops) {
  const double n = std::max(traced_ops, 1.0);
  for (const auto& [name, self] : tracer.self_seconds())
    if (name != "op") r.layer[name + "_s"] = self / n;
  const double op_total = tracer.total_seconds("op");
  const auto self = tracer.self_seconds();
  const auto it = self.find("op");
  r.layer["trace.unattributed_share"] =
      op_total > 0 && it != self.end() ? it->second / op_total : 0.0;
  const double untraced = median(r.op_seconds);
  r.layer["trace.overhead_share"] =
      untraced > 0 ? median(r.traced_op_seconds) / untraced - 1.0 : 0.0;
}

namespace {

struct Checked {
  Digest digest;
  std::string problem;  ///< empty when every check passed
};

/// One checked compile, each layer in its own span: parse -> CP selection
/// -> communication -> SPMD emission -> verifier bind + check -> model ->
/// lint. The program is valid by construction, so it must verify clean
/// and draw no error-severity lint finding.
Checked checked_compile(const std::string& source, Tracer* tr, std::uint64_t group) {
  Checked out;
  try {
    const hpf::Program prog = layer(tr, "hpf.parse", group, [&] { return hpf::parse(source); });
    cp::CpResult cps = layer(tr, "cp.select", group, [&] { return cp::select_cps(prog); });
    comm::CommPlan plan =
        layer(tr, "comm.generate", group, [&] { return comm::generate_comm(prog, cps); });
    const std::string listing =
        layer(tr, "codegen.emit", group, [&] { return codegen::emit_spmd(prog, cps, plan); });
    const verify::CompiledPlan bound =
        layer(tr, "verify.bind", group, [&] { return verify::bind(prog, cps, plan); });
    const verify::Report report =
        layer(tr, "verify.check", group, [&] { return verify::check(bound); });
    const model::Prediction pred =
        layer(tr, "model.predict", group, [&] { return model::predict(prog, cps, plan); });
    const lint::Report lints = layer(tr, "lint.run", group, [&] { return lint::run(prog); });

    out.digest = {plan.events.size(), cps.stmts.size(), pred.total_instances,
                  report.checks_run};
    if (listing.empty())
      out.problem = "empty SPMD listing";
    else if (!report.clean())
      out.problem = "verifier: " + report.diagnostics.front().to_string();
    else if (!lints.clean())
      out.problem = "lint: " + lints.to_string();
  } catch (const std::exception& e) {
    out.problem = std::string("threw: ") + e.what();
  }
  return out;
}

/// Run `fn` (a set-up repetition) and move `base` forward by the memo
/// traffic it caused, so that a repetition run inside the measured window
/// stays out of the per-operation iset figures taken against `base`.
template <typename Fn>
void off_the_books(iset::memo::CacheStats& base, Fn&& fn) {
  const auto t0 = iset::memo::cache_stats();
  fn();
  const auto t1 = iset::memo::cache_stats();
  base.intern_nodes += t1.intern_nodes - t0.intern_nodes;
  base.intern_reuses += t1.intern_reuses - t0.intern_reuses;
  base.hits += t1.hits - t0.hits;
  base.misses += t1.misses - t0.misses;
  base.evictions += t1.evictions - t0.evictions;
}

/// Time one cold checked compile; a traced compile gets an "op" root span.
double timed_compile(const std::string& source, Tracer* tr, std::uint64_t group, Checked& out) {
  iset::memo::clear_caches();
  const std::uint64_t t0 = now_ns();
  {
    Scope op(tr, "op", group);
    out = checked_compile(source, tr, group);
  }
  return ns_to_s(now_ns() - t0);
}

void add_digest_metrics(Result& r, const Digest& sum, double ops) {
  const double n = std::max(ops, 1.0);
  r.layer["cp.stmts"] = static_cast<double>(sum.stmts) / n;
  r.layer["comm.events"] = static_cast<double>(sum.events) / n;
  r.layer["codegen.instances"] = static_cast<double>(sum.instances) / n;
  r.layer["verify.checks_run"] = static_cast<double>(sum.checks_run) / n;
}

void accumulate(Digest& sum, const Digest& d) {
  sum.events += d.events;
  sum.stmts += d.stmts;
  sum.instances += d.instances;
  sum.checks_run += d.checks_run;
}

/// A checked compile's verdict against its known answer; "" when it passes.
std::string check_compile(const std::string& name, const Checked& c, const Digest& want) {
  if (!c.problem.empty()) return name + ": " + c.problem;
  if (!(c.digest == want)) return name + ": digest " + c.digest.str() + ", expected " + want.str();
  return "";
}

/// The checked_compile corpus: fuzz campaign seeds 1..kPoolSize, the same
/// programs on every run (the run seed fixes only their order), so the
/// figures of two runs compare the same work.
constexpr std::uint64_t kPoolSize = 128;
constexpr std::size_t kWarmup = 8;

}  // namespace

Result run_checked_compile(const Options& opt, const json::Value& known) {
  Result r;
  std::vector<std::string> pool;
  std::vector<Digest> expected;
  auto set_up = [&] {
    pool.clear();
    expected.clear();
    for (std::uint64_t seed = 1; seed <= kPoolSize; ++seed) {
      pool.push_back(fuzz::generate(seed).source);
      expected.push_back(known_digest(known, "checked_compile", "fuzz-" + std::to_string(seed),
                                      opt.corrupt_expected));
    }
    // Warm-up: the first few programs, checked like any other compile, so
    // first-touch costs land in set-up rather than in the first samples.
    for (std::size_t i = 0; i < kWarmup; ++i) {
      Checked c;
      timed_compile(pool[i], nullptr, 0, c);
      ++r.attempted;
      if (std::string problem = check_compile("fuzz-" + std::to_string(i + 1), c, expected[i]);
          !problem.empty())
        r.fail(problem);
    }
  };
  iset::memo::CacheStats before;
  SetupReps setup(r.setup_seconds, opt.seconds, kSetupReps,
                  [&] { off_the_books(before, set_up); });

  // Whole passes over the corpus, each in a seeded order, until the time
  // is up: every run compiles every program the same number of times.
  Tracer tracer;
  Digest sum;
  std::size_t ops = 0, passes = 0;
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  before = iset::memo::cache_stats();
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (; passes == 0 || now_ns() < deadline; ++passes) {
    shuffle(order, opt.seed, passes);
    for (const std::size_t idx : order) {
      setup.poll();
      // A traced run compiles the program twice, once with spans, and
      // pairs the two for trace.overhead_share.
      Checked c, traced;
      run_pair(
          opt.trace, ops,
          [&] { r.op_seconds.push_back(timed_compile(pool[idx], nullptr, ops, c)); },
          [&] { r.traced_op_seconds.push_back(timed_compile(pool[idx], &tracer, ops, traced)); });
      if (opt.trace && !(traced.digest == c.digest)) c.problem = "traced compile digest differs";
      ++ops;
      ++r.attempted;
      if (std::string problem = check_compile("fuzz-" + std::to_string(idx + 1), c, expected[idx]);
          !problem.empty()) {
        r.fail(problem);
      } else {
        accumulate(sum, c.digest);
        ++r.good;
      }
    }
  }
  const auto after = iset::memo::cache_stats();
  setup.finish();
  r.busy_seconds = std::accumulate(r.op_seconds.begin(), r.op_seconds.end(), 0.0);
  add_digest_metrics(r, sum, static_cast<double>(r.good));
  add_iset_metrics(r, before, after, static_cast<double>(ops * (opt.trace ? 2 : 1)));
  if (opt.trace) {
    add_trace_metrics(r, tracer, static_cast<double>(r.traced_op_seconds.size()));
    if (!opt.spans_out.empty() && !tracer.write(opt.spans_out))
      r.fail("cannot write spans to " + opt.spans_out);
  }
  r.notes.push_back("compiles=" + std::to_string(ops) + " passes=" + std::to_string(passes) +
                    " over " + std::to_string(pool.size()) + " fuzz programs");
  return r;
}

namespace {

struct Kernel {
  std::string key;  ///< known_answers.json "large_extent" member
  std::string source;
};

/// The kernel set at large extent (5*10^5 points 1D, 4.9*10^5 points 2D,
/// 3.3*10^4 points per array SP) or at the examples' own scale. The 20000^2
/// Jacobi is deliberately absent: verify is OOM-killed on it today.
std::vector<Kernel> kernel_set(bool large) {
  const int n1 = large ? 500000 : 64, n2 = large ? 700 : 32, n3 = large ? 32 : 12;
  return {{"stencil_1d_" + std::to_string(n1), stencil_1d(n1)},
          {"jacobi_2d_" + std::to_string(n2), jacobi_2d(n2)},
          {"sp_dhpf_style_" + std::to_string(n3), sp_dhpf_style(n3)}};
}

}  // namespace

Result run_large_extent(const Options& opt, const json::Value& known) {
  Result r;
  std::vector<Kernel> kernels;
  std::vector<Digest> expected;
  auto set_up = [&] {
    // The same kernels at the examples' scale must compile to their known
    // plans before any large one is timed.
    for (const Kernel& k : kernel_set(false)) {
      Checked c;
      timed_compile(k.source, nullptr, 0, c);
      ++r.attempted;
      const Digest want = known_digest(known, "large_extent", k.key, opt.corrupt_expected);
      if (std::string problem = check_compile(k.key, c, want); !problem.empty()) r.fail(problem);
    }
    kernels = kernel_set(true);
    expected.clear();
    for (const Kernel& k : kernels)
      expected.push_back(known_digest(known, "large_extent", k.key, opt.corrupt_expected));
  };
  iset::memo::CacheStats before;
  SetupReps setup(r.setup_seconds, opt.seconds, kSetupReps,
                  [&] { off_the_books(before, set_up); });

  // One operation is a verdict over the whole kernel set; the seed fixes
  // the order the kernels run in within each set.
  Tracer tracer;
  Digest sum;
  std::size_t sets = 0;
  std::vector<std::size_t> order(kernels.size());
  std::iota(order.begin(), order.end(), 0);
  before = iset::memo::cache_stats();
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  while (now_ns() < deadline) {
    setup.poll();
    shuffle(order, opt.seed, sets);
    double set_seconds = 0.0, traced_seconds = 0.0;
    bool ok = true;
    for (const std::size_t k : order) {
      Checked c, traced;
      run_pair(
          opt.trace, sets + k,
          [&] { set_seconds += timed_compile(kernels[k].source, nullptr, sets, c); },
          [&] { traced_seconds += timed_compile(kernels[k].source, &tracer, sets, traced); });
      if (opt.trace && !(traced.digest == c.digest)) c.problem = "traced compile digest differs";
      ++r.attempted;
      if (std::string problem = check_compile(kernels[k].key, c, expected[k]); !problem.empty()) {
        r.fail(problem);
        ok = false;
      } else {
        accumulate(sum, c.digest);
      }
    }
    r.op_seconds.push_back(set_seconds);
    if (opt.trace) r.traced_op_seconds.push_back(traced_seconds);
    ++sets;
    if (ok) ++r.good;
  }
  const auto after = iset::memo::cache_stats();
  setup.finish();
  r.busy_seconds = std::accumulate(r.op_seconds.begin(), r.op_seconds.end(), 0.0);
  add_digest_metrics(r, sum, static_cast<double>(r.good));
  add_iset_metrics(r, before, after, static_cast<double>(sets * (opt.trace ? 2 : 1)));
  if (opt.trace) {
    add_trace_metrics(r, tracer, static_cast<double>(r.traced_op_seconds.size()));
    if (!opt.spans_out.empty() && !tracer.write(opt.spans_out))
      r.fail("cannot write spans to " + opt.spans_out);
  }
  r.notes.push_back("kernel sets=" + std::to_string(sets));
  return r;
}

}  // namespace perfbench
