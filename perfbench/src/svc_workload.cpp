// svc_mixed: svc::Service::submit in-process under an open loop. One
// generator thread (the caller) submits at a fixed rate to a service with
// kWorkers pool workers; each latency runs from the request's due time to
// its completion callback. The request population mixes exact repeats
// (result-cache hits), two programs under many flag sets and grid shapes
// (result-cache misses that reuse the iset memo) and distinct programs. Every response is
// compared byte for byte with the one-shot pipeline's answer for the same
// request, computed during set-up.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "codegen/driver.hpp"
#include "exec/machine.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/rng.hpp"
#include "hpf/parser.hpp"
#include "kernels.hpp"
#include "lint/lint.hpp"
#include "model/model.hpp"
#include "svc/service.hpp"
#include "tune/tune.hpp"
#include "verify/plan.hpp"
#include "verify/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dhpf;

namespace {

constexpr int kWorkers = 3;             ///< plus the generator: 4 threads
constexpr double kRatePerSecond = 40;  ///< open-loop arrival rate
constexpr double kLimitMs = 500;       ///< goodput latency limit
constexpr int kHotSet = 16;            ///< exact-repeat population
/// Request shares in percent; distinct programs take what the shares and
/// the tune sweep leave. Cheap replies (cache hits, lint) stay well under
/// half, so the median lies inside the pipeline requests rather than on the
/// edge between the two.
constexpr int kRepeatShare = 25, kVariantShare = 35;
/// Hot-set programs are fuzz seeds kHotBase+1.., distinct ones 1..
constexpr std::uint64_t kHotBase = 1000;
/// Set-up repetitions. Set-up here (~1.9 s on four threads) cannot run
/// between the requests of an open loop, so all three come first.
constexpr int kSvcSetupReps = 3;

/// The compile report minus its "passes" member (the last one): pass
/// timings and the counters bumped during each pass (iset memo hits among
/// them) depend on timing and on what earlier requests left in the memo,
/// so only the rest of the report is an answer.
std::string report_answer(const std::string& report_json) {
  return report_json.substr(0, report_json.find("\"passes\""));
}

/// The payload of a response that the request's kind asked for.
std::string payload(const svc::Response& r) {
  switch (r.kind) {
    case svc::Kind::Compile:
      return r.listing + "\n" + report_answer(r.report_json);
    case svc::Kind::Verify:
      return r.verify_json;
    case svc::Kind::Model:
      return r.model_json;
    case svc::Kind::Tune:
      return r.tune_json;
    case svc::Kind::Lint:
      return r.lint_json;
    case svc::Kind::Stats:
      break;
  }
  return "";
}

/// The one-shot answer: what `dhpfc` computes for the same request, through
/// the same public calls the service makes, with no service in between.
std::string one_shot(const svc::Request& q) {
  hpf::Program prog = hpf::parse(q.source);
  if (!q.grid.empty()) prog.grids().front()->extents = q.grid;
  if (q.kind == svc::Kind::Lint) {
    lint::Report rep = lint::run(prog);
    lint::add_snippets(rep, q.source);
    return rep.to_json();
  }
  if (q.kind == svc::Kind::Tune) {
    tune::TuneOptions topt;
    topt.measure_top_k = q.tune_measure;
    topt.xopt.backend = q.backend;
    return tune::tune(prog, topt).to_json();
  }
  const codegen::CompileResult c = codegen::compile(prog, q.flags.sopt, q.flags.copt);
  if (q.kind == svc::Kind::Compile) return c.listing + "\n" + report_answer(c.report.to_json());
  if (q.kind == svc::Kind::Verify)
    return verify::check(verify::bind(prog, c.cps, c.plan)).to_json();
  const exec::Machine machine = exec::Machine::sp2();
  return model::predict(prog, c.cps, c.plan, machine)
      .to_json(model::ModelParams::from_machine(machine));
}

struct Population {
  std::vector<svc::Request> requests;  ///< in arrival order
  std::vector<std::size_t> answer;     ///< request -> index into expected
  std::vector<std::string> expected;
  std::map<std::string, std::size_t> part_counts;
};

/// Requests with equal keys have equal answers: the service's cache key
/// (source, flags, grid, tune settings) refined by the product asked for.
std::string answer_key(const svc::Request& q) {
  const svc::CacheKey key = svc::request_key(q);
  return std::string(svc::to_string(q.kind)) + ':' + std::to_string(key.hi) + ':' +
         std::to_string(key.lo);
}

/// The request stream. Its make-up is the same for every seed, so runs
/// compare like with like: the hot set, the sweeps and the distinct
/// programs are fixed, and the seed chooses the arrival order and the kinds
/// of the sweep and hot-set requests.
///   * repeat: exact repeats of 16 hot requests (two of them tune
///     requests) -- result-cache hits after the first;
///   * flag_variant: the SP model and the 2D Jacobi at example scale under
///     each of the 48 tuner flag sets and four grid shapes, each pair once
///     -- result-cache misses that reuse the iset memo;
///   * tune: the 2D Jacobi tuned for twelve grid shapes, once each -- the
///     heaviest requests (~0.2 s), numerous enough that the tail
///     percentile falls among them rather than on one odd program;
///   * distinct: fuzz programs 1, 2, ... each once, as compile, verify,
///     model or lint by program number.
Population make_population(std::uint64_t seed, std::size_t n) {
  Population pop;
  fuzz::Rng rng(derive_seed(seed, 0x5c));
  auto request = [](std::string source, svc::Kind kind) {
    svc::Request q;
    q.kind = kind;
    q.source = std::move(source);
    return q;
  };
  const svc::Kind kinds[] = {svc::Kind::Compile, svc::Kind::Verify, svc::Kind::Model,
                             svc::Kind::Lint};

  std::vector<svc::Request> hot;
  for (int h = 0; h < kHotSet; ++h)
    hot.push_back(request(fuzz::generate(kHotBase + 1 + static_cast<std::uint64_t>(h)).source,
                          h % 8 == 7 ? svc::Kind::Tune : kinds[rng.pick(0, 3)]));
  std::vector<svc::Request> sweep;
  const std::vector<std::vector<int>> grids = {{2, 2}, {4, 1}, {1, 4}, {2, 1}};
  for (const std::string& source : {sp_dhpf_style(12), jacobi_2d(32)})
    for (const tune::VariantSpec& v : tune::enumerate_variants())
      for (const auto& grid : grids) {
        svc::Request q = request(source, kinds[rng.pick(0, 2)]);
        q.flags.sopt = v.sopt;
        q.flags.copt = v.copt;
        q.grid = grid;
        sweep.push_back(std::move(q));
      }
  shuffle(sweep, seed, 1);
  // Tunes stay on the sim backend: the default variant is always measured,
  // and only sim's measurement (simulated time) is deterministic.
  std::vector<svc::Request> tunes;
  for (const std::vector<int>& grid : {std::vector<int>{2, 2}, {4, 1}, {1, 4}, {2, 1},
                                       {1, 2}, {3, 1}, {1, 3}, {3, 2}, {2, 3}, {4, 2},
                                       {2, 4}, {3, 3}}) {
    svc::Request q = request(jacobi_2d(32), svc::Kind::Tune);
    q.grid = grid;
    tunes.push_back(std::move(q));
  }

  // Parts in fixed proportions, positions shuffled.
  enum Part { kRepeat, kVariant, kTune, kDistinct };
  std::vector<Part> part;
  part.insert(part.end(), n * kRepeatShare / 100, kRepeat);
  part.insert(part.end(), std::min(n * kVariantShare / 100, sweep.size()), kVariant);
  part.insert(part.end(), tunes.size(), kTune);
  part.resize(std::max(part.size(), n), kDistinct);
  part.resize(n);
  shuffle(part, seed, 2);
  std::size_t next_sweep = 0, next_tune = 0, next_distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (part[i] == kRepeat) {
      pop.requests.push_back(hot[static_cast<std::size_t>(rng.pick(0, kHotSet - 1))]);
      ++pop.part_counts["repeat"];
    } else if (part[i] == kVariant) {
      pop.requests.push_back(sweep[next_sweep++]);
      ++pop.part_counts["flag_variant"];
    } else if (part[i] == kTune) {
      pop.requests.push_back(tunes[next_tune++]);
      ++pop.part_counts["tune"];
    } else {
      const std::uint64_t program = ++next_distinct;
      pop.requests.push_back(request(fuzz::generate(program).source, kinds[program % 4]));
      ++pop.part_counts["distinct"];
    }
    pop.requests.back().id = i;
  }

  std::map<std::string, std::size_t> index;
  std::vector<const svc::Request*> unique;
  for (const svc::Request& q : pop.requests) {
    const auto [it, fresh] = index.emplace(answer_key(q), unique.size());
    if (fresh) unique.push_back(&q);
    pop.answer.push_back(it->second);
  }
  pop.expected.resize(unique.size());
  // All four threads compute answers; the service does not exist yet.
  parallel_for(unique.size(), kWorkers + 1,
               [&](std::size_t i) { pop.expected[i] = one_shot(*unique[i]); });
  return pop;
}

struct Slot {
  std::uint64_t due_ns = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t done_ns = 0;
  svc::Response response;
};

}  // namespace

Result run_svc_mixed(const Options& opt, const json::Value& /*known*/) {
  Result r;
  const auto n = static_cast<std::size_t>(kRatePerSecond * opt.seconds);
  Population pop;
  for (int rep = 0; rep < kSvcSetupReps; ++rep) {
    const std::uint64_t t0 = now_ns();
    iset::memo::clear_caches();
    Population fresh = make_population(opt.seed, n);
    r.setup_seconds.push_back(ns_to_s(now_ns() - t0));
    if (rep > 0 && fresh.expected != pop.expected)
      r.fail("one-shot answers differ between set-up repetitions");
    pop = std::move(fresh);
  }
  if (opt.corrupt_expected && !pop.expected.empty()) pop.expected[pop.answer[0]] += " ";
  // The service starts as cold as a fresh daemon: no memo left from set-up.
  iset::memo::clear_caches();

  std::vector<Slot> slots(n);
  std::mutex mu;
  std::condition_variable all_done;
  std::size_t completed = 0;
  // Declared after what its callbacks touch, so it drains first.
  svc::ServiceOptions sopt;
  sopt.workers = kWorkers;
  svc::Service service(sopt);

  const auto before = iset::memo::cache_stats();
  const std::uint64_t period = static_cast<std::uint64_t>(1e9 / kRatePerSecond);
  const std::uint64_t start = now_ns() + 1000000;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& slot = slots[i];
    slot.due_ns = start + i * period;
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(slot.due_ns)));
    slot.submit_ns = now_ns();
    service.submit(pop.requests[i], [&, i](svc::Response resp) {
      const std::uint64_t done = now_ns();
      std::lock_guard<std::mutex> lock(mu);
      slots[i].done_ns = done;
      slots[i].response = std::move(resp);
      if (++completed == n) all_done.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    all_done.wait(lock, [&] { return completed == n; });
  }
  const auto after = iset::memo::cache_stats();
  const svc::Service::Stats stats = service.stats();

  // Checks and statistics, all outside the measured window.
  Tracer tracer;
  std::uint64_t last_done = start;
  std::vector<double> queue_ms, late_ms;
  std::map<std::string, std::vector<double>> service_ms;
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    const svc::Response& resp = s.response;
    const double latency = ns_to_s(s.done_ns - s.due_ns);
    // Odd requests form the traced half of a traced run: their spans are
    // rebuilt from the timestamps each request carries.
    const bool traced = opt.trace && i % 2 == 1;
    (traced ? r.traced_op_seconds : r.op_seconds).push_back(latency);
    last_done = std::max(last_done, s.done_ns);
    queue_ms.push_back(resp.queue_seconds * 1e3);
    late_ms.push_back(ns_to_s(s.submit_ns - s.due_ns) * 1e3);
    service_ms[svc::to_string(resp.kind)].push_back(resp.service_seconds * 1e3);
    if (traced) {
      const int root = tracer.record("op", s.due_ns, s.done_ns, -1, i);
      const auto queued = s.submit_ns + static_cast<std::uint64_t>(resp.queue_seconds * 1e9);
      const auto served = queued + static_cast<std::uint64_t>(resp.service_seconds * 1e9);
      tracer.record("svc.gen_late", s.due_ns, s.submit_ns, root, i);
      tracer.record("svc.queue_wait", s.submit_ns, queued, root, i);
      tracer.record("svc.service", queued, served, root, i);
    }
    ++r.attempted;
    if (!resp.ok) {
      r.fail("request " + std::to_string(i) + ": " + svc::to_string(resp.code) + " " +
             resp.error);
    } else if (payload(resp) != pop.expected[pop.answer[i]]) {
      r.fail("request " + std::to_string(i) + " (" + svc::to_string(resp.kind) +
             "): response differs from the one-shot answer");
    } else if (latency * 1e3 <= kLimitMs) {
      ++r.good;
    }
  }
  r.busy_seconds = ns_to_s(last_done - start);

  r.layer["svc.queue_wait_ms"] = median(queue_ms);
  double late_sum = 0.0;
  for (const double v : late_ms) late_sum += v;
  r.layer["svc.gen_late_ms"] = late_ms.empty() ? 0.0 : late_sum / static_cast<double>(n);
  for (const auto& [kind, v] : service_ms) r.layer["svc.service_ms." + kind] = median(v);
  const double probes =
      static_cast<double>(stats.cache.hits + stats.cache.misses + stats.cache.coalesced);
  r.layer["svc.cache_hit_ratio"] =
      probes > 0 ? static_cast<double>(stats.cache.hits) / probes : 0.0;
  r.layer["svc.coalesced"] = static_cast<double>(stats.cache.coalesced);
  r.layer["exec.pool_stolen"] = static_cast<double>(stats.pool.stolen);
  add_iset_metrics(r, before, after, static_cast<double>(n));
  if (opt.trace) {
    add_trace_metrics(r, tracer, static_cast<double>(r.traced_op_seconds.size()));
    if (!opt.spans_out.empty() && !tracer.write(opt.spans_out))
      r.fail("cannot write spans to " + opt.spans_out);
  }

  char line[256];
  std::snprintf(line, sizeof line,
                "requests=%zu rate=%.0f/s workers=%d limit=%.0fms unique answers=%zu "
                "repeat=%zu flag_variant=%zu tune=%zu distinct=%zu cache probes=%.0f",
                n, kRatePerSecond, kWorkers, kLimitMs, pop.expected.size(),
                pop.part_counts["repeat"], pop.part_counts["flag_variant"],
                pop.part_counts["tune"], pop.part_counts["distinct"], probes);
  r.notes.push_back(line);
  return r;
}

}  // namespace perfbench
