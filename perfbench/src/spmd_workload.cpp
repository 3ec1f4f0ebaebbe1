// spmd_run: the SP model compiled once during set-up, then executed by
// codegen::run_spmd on the sim, mp and shm backends (ComputeMode::Noop, so
// the interpreter and the runtimes do all the work). One operation is a
// round: one run on each backend. Every run's gathered owner copies must be
// bitwise equal to interpret_serial, sim's message totals must equal the
// model's, and shm's barrier episodes must equal
// model::Prediction::barrier_episodes. The seed fixes the backend order of
// each round.
#include <cstring>
#include <numeric>

#include "codegen/spmd.hpp"
#include "comm/comm.hpp"
#include "cp/select.hpp"
#include "exec/machine.hpp"
#include "hpf/parser.hpp"
#include "kernels.hpp"
#include "model/model.hpp"
#include "verify/plan.hpp"
#include "verify/verify.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace dhpf;

namespace {

/// 24^3 on P(2, 2): ~55k statement instances across the four ranks.
constexpr int kExtent = 24;

struct Compiled {
  hpf::Program prog;
  cp::CpResult cps;
  comm::CommPlan plan;
  model::Prediction pred;
  codegen::Store serial;
  double serial_seconds = 0.0;
};

/// Name of the first bitwise difference between the distributed arrays of
/// `got` and `want` ("" when equal).
std::string first_difference(const hpf::Program& prog, const codegen::Store& want,
                             const codegen::Store& got) {
  for (const auto& a : prog.arrays()) {
    if (!a->distributed()) continue;
    const auto w = want.find(a.get());
    const auto g = got.find(a.get());
    if (w == want.end() || g == got.end() || w->second.size() != g->second.size())
      return a->name + ": missing or resized";
    if (std::memcmp(w->second.data(), g->second.data(), w->second.size() * sizeof(double)))
      return a->name + ": owner copies differ from interpret_serial";
  }
  return "";
}

struct Round {
  double seconds[3] = {};  ///< sim, mp, shm
  codegen::SpmdResult runs[3];
};

constexpr exec::Backend kBackends[] = {exec::Backend::Sim, exec::Backend::Mp,
                                       exec::Backend::Shm};
constexpr const char* kSpanNames[] = {"sim.run", "mp.run", "shm.run"};

/// One run per backend, in the order `order` gives.
Round run_round(const Compiled& c, const std::vector<int>& order, Tracer* tr,
                std::uint64_t group) {
  Round out;
  Scope op(tr, "op", group);
  for (const int b : order) {
    codegen::SpmdOptions xopt;
    xopt.backend = kBackends[b];
    xopt.mp.compute_mode = mp::ComputeMode::Noop;
    xopt.shm.compute_mode = shm::ComputeMode::Noop;
    xopt.verify = false;  // the bitwise comparison against set-up's oracle replaces it
    xopt.collect_result = true;
    const std::uint64_t t0 = now_ns();
    out.runs[b] = layer(tr, kSpanNames[b], group, [&] {
      return codegen::run_spmd(c.prog, c.cps, c.plan, exec::Machine::sp2(), xopt);
    });
    out.seconds[b] = ns_to_s(now_ns() - t0);
  }
  return out;
}

std::string check_round(const Compiled& c, const Round& round) {
  for (int b = 0; b < 3; ++b)
    if (std::string diff = first_difference(c.prog, c.serial, round.runs[b].gathered);
        !diff.empty())
      return std::string(exec::to_string(kBackends[b])) + ": " + diff;
  const codegen::SpmdResult& sim = round.runs[0];
  if (sim.stats.messages != c.pred.messages || sim.stats.bytes != c.pred.bytes)
    return "sim messages/bytes differ from the model's";
  if (round.runs[2].shm_stats.barriers != c.pred.barrier_episodes)
    return "shm barriers " + std::to_string(round.runs[2].shm_stats.barriers) +
           " != model barrier_episodes " + std::to_string(c.pred.barrier_episodes);
  return "";
}

}  // namespace

Result run_spmd_run(const Options& opt, const json::Value& known) {
  Result r;
  Compiled c;
  const std::string key = "sp_dhpf_style_" + std::to_string(kExtent);
  auto set_up = [&] {
    Compiled fresh;
    fresh.prog = hpf::parse(sp_dhpf_style(kExtent));
    fresh.cps = cp::select_cps(fresh.prog);
    fresh.plan = comm::generate_comm(fresh.prog, fresh.cps);
    const verify::Report report =
        verify::check(verify::bind(fresh.prog, fresh.cps, fresh.plan));
    fresh.pred = model::predict(fresh.prog, fresh.cps, fresh.plan);
    const std::uint64_t t1 = now_ns();
    fresh.serial = codegen::interpret_serial(fresh.prog);
    fresh.serial_seconds = ns_to_s(now_ns() - t1);

    ++r.attempted;
    const Digest got{fresh.plan.events.size(), fresh.cps.stmts.size(),
                     fresh.pred.total_instances, report.checks_run};
    const Digest want = known_digest(known, "spmd_run", key, opt.corrupt_expected);
    if (!report.clean())
      r.fail(key + ": verifier: " + report.diagnostics.front().to_string());
    else if (!(got == want))
      r.fail(key + ": digest " + got.str() + ", expected " + want.str());
    if (opt.corrupt_expected) {
      // Flip one bit of the oracle: every backend must now disagree with it.
      for (auto& [array, values] : fresh.serial)
        if (array->distributed() && !values.empty()) {
          std::uint64_t bits;
          std::memcpy(&bits, &values[0], sizeof bits);
          bits ^= 1;
          std::memcpy(&values[0], &bits, sizeof bits);
          break;
        }
    }
    c = std::move(fresh);
  };
  SetupReps setup(r.setup_seconds, opt.seconds, kSetupReps, set_up);

  Tracer tracer;
  std::vector<double> per_backend[3];
  double messages[3] = {}, bytes = 0, virtual_s = 0, wait_s[3] = {}, barriers = 0,
         shared_bytes = 0, instances = 0;
  std::size_t rounds = 0;
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  std::vector<int> order = {0, 1, 2};
  while (now_ns() < deadline) {
    setup.poll();
    shuffle(order, opt.seed, rounds);
    Round round, traced;
    run_pair(
        opt.trace, rounds,
        [&] {
          round = run_round(c, order, nullptr, rounds);
          r.op_seconds.push_back(round.seconds[0] + round.seconds[1] + round.seconds[2]);
        },
        [&] {
          traced = run_round(c, order, &tracer, rounds);
          r.traced_op_seconds.push_back(traced.seconds[0] + traced.seconds[1] +
                                        traced.seconds[2]);
        });
    if (opt.trace) {
      if (std::string problem = check_round(c, traced); !problem.empty()) {
        ++r.attempted;
        r.fail("traced round " + std::to_string(rounds) + ": " + problem);
      }
    }
    ++rounds;
    ++r.attempted;
    if (std::string problem = check_round(c, round); !problem.empty()) {
      r.fail("round " + std::to_string(rounds) + ": " + problem);
      continue;
    }
    ++r.good;
    for (int b = 0; b < 3; ++b) {
      per_backend[b].push_back(round.seconds[b]);
      messages[b] += static_cast<double>(round.runs[b].stats.messages);
    }
    bytes += static_cast<double>(round.runs[0].stats.bytes);
    virtual_s += round.runs[0].elapsed;
    instances += static_cast<double>(round.runs[0].total_instances());
    for (const auto& rank : round.runs[1].mp_stats.ranks) wait_s[1] += rank.wait_seconds;
    for (const auto& rank : round.runs[2].shm_stats.ranks) wait_s[2] += rank.wait_seconds;
    barriers += static_cast<double>(round.runs[2].shm_stats.barriers);
    shared_bytes += static_cast<double>(round.runs[2].shm_stats.shared_read_bytes);
  }
  setup.finish();
  r.busy_seconds = std::accumulate(r.op_seconds.begin(), r.op_seconds.end(), 0.0);

  const double n = r.good > 0 ? static_cast<double>(r.good) : 1.0;
  r.layer["codegen.interpret_serial_s"] = c.serial_seconds;
  r.layer["codegen.instances"] = instances / n;
  r.layer["sim.messages"] = messages[0] / n;
  r.layer["sim.bytes"] = bytes / n;
  r.layer["sim.virtual_s"] = virtual_s / n;
  r.layer["mp.messages"] = messages[1] / n;
  r.layer["mp.wait_s"] = wait_s[1] / n;
  r.layer["shm.barriers"] = barriers / n;
  r.layer["shm.shared_bytes"] = shared_bytes / n;
  r.layer["shm.wait_s"] = wait_s[2] / n;
  if (opt.trace) {
    add_trace_metrics(r, tracer, static_cast<double>(r.traced_op_seconds.size()));
    if (!opt.spans_out.empty() && !tracer.write(opt.spans_out))
      r.fail("cannot write spans to " + opt.spans_out);
  }
  char line[200];
  std::snprintf(line, sizeof line,
                "rounds=%zu extent=%d^3 ranks=4 median run s: sim=%.4f mp=%.4f shm=%.4f",
                rounds, kExtent, median(per_backend[0]), median(per_backend[1]),
                median(per_backend[2]));
  r.notes.push_back(line);
  return r;
}

}  // namespace perfbench
