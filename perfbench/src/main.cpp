// perfbench: the repository benchmark's measuring program. run.py builds
// and launches it; see perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             --known-answers FILE [--spans-out FILE] [--corrupt-expected]
//
// Prints human-readable lines, then (last line) one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The metrics are the end-to-end set, or with --trace 1 the per-layer set.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "support/json.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"hpf.parse_s", "s"},
    {"cp.select_s", "s"},
    {"comm.generate_s", "s"},
    {"codegen.emit_s", "s"},
    {"verify.bind_s", "s"},
    {"verify.check_s", "s"},
    {"model.predict_s", "s"},
    {"lint.run_s", "s"},
    {"cp.stmts", "count"},
    {"comm.events", "count"},
    {"verify.checks_run", "count"},
    {"codegen.instances", "count"},
    {"iset.memo_hits", "count"},
    {"iset.memo_misses", "count"},
    {"iset.memo_lookups", "count"},
    {"iset.memo_hit_ratio", "ratio"},
    {"iset.intern_nodes", "count"},
    {"iset.evictions", "count"},
    {"svc.queue_wait_ms", "ms"},
    {"svc.service_ms.compile", "ms"},
    {"svc.service_ms.verify", "ms"},
    {"svc.service_ms.model", "ms"},
    {"svc.service_ms.lint", "ms"},
    {"svc.service_ms.tune", "ms"},
    {"svc.cache_hit_ratio", "ratio"},
    {"svc.coalesced", "count"},
    {"exec.pool_stolen", "count"},
    {"svc.gen_late_ms", "ms"},
    {"codegen.interpret_serial_s", "s"},
    {"sim.run_s", "s"},
    {"mp.run_s", "s"},
    {"shm.run_s", "s"},
    {"sim.messages", "count"},
    {"sim.bytes", "bytes"},
    {"sim.virtual_s", "s"},
    {"mp.messages", "count"},
    {"mp.wait_s", "s"},
    {"shm.barriers", "count"},
    {"shm.shared_bytes", "bytes"},
    {"shm.wait_s", "s"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload checked_compile|large_extent|"
               "svc_mixed|spmd_run --seed N --seconds S --trace 0|1 --known-answers FILE "
               "[--spans-out FILE] [--corrupt-expected]\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload")
        opt.workload = value();
      else if (a == "--seed")
        opt.seed = std::stoull(value());
      else if (a == "--seconds")
        opt.seconds = std::stod(value());
      else if (a == "--trace")
        opt.trace = std::stoi(value()) != 0;
      else if (a == "--known-answers")
        opt.known_answers = value();
      else if (a == "--spans-out")
        opt.spans_out = value();
      else if (a == "--corrupt-expected")
        opt.corrupt_expected = true;
      else
        usage("unknown argument " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (opt.known_answers.empty()) usage("--known-answers is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

dhpf::json::Value load_known(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return dhpf::json::parse(text.str());
}

/// The workload-specific names the doc gives the same numbers.
void print_aliases(const std::string& w, double per_s, double p50_ms, const Tail& t) {
  if (w == "checked_compile")
    std::printf("compile_per_s = %.4f\ncompile_p50_ms = %.4f\n", per_s, p50_ms);
  else if (w == "large_extent")
    std::printf("large_verdict_s = %.4f\n", p50_ms / 1e3);
  else if (w == "svc_mixed")
    std::printf("svc_goodput_per_s = %.4f\nsvc_p50_ms = %.4f\n", per_s, p50_ms);
  std::printf("tail = p%.2f with %zu samples beyond it (%.4f ms)\n", t.percentile, t.beyond,
              t.value);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  Result r;
  try {
    const dhpf::json::Value known = load_known(opt.known_answers);
    if (opt.workload == "checked_compile")
      r = run_checked_compile(opt, known);
    else if (opt.workload == "large_extent")
      r = run_large_extent(opt, known);
    else if (opt.workload == "svc_mixed")
      r = run_svc_mixed(opt, known);
    else if (opt.workload == "spmd_run")
      r = run_spmd_run(opt, known);
    else
      usage("unknown workload " + opt.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (r.attempted == 0) r.fail("no operation completed");

  const double per_s = r.busy_seconds > 0 ? static_cast<double>(r.good) / r.busy_seconds : 0;
  std::vector<double> ms;
  for (const double s : r.op_seconds) ms.push_back(s * 1e3);
  const Tail t = tail(ms);
  std::map<std::string, double> e2e = {
      {"setup_s", median(r.setup_seconds)},
      {"peak_rss_mb", peak_rss_mb()},
      {"throughput_per_s", per_s},
      {"latency_p50_ms", median(ms)},
      {"latency_tail_ms", t.value},
  };

  std::printf("workload %s seed %llu: %zu operations measured%s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), r.op_seconds.size(),
              opt.trace ? " (traced run: paired traced/untraced operations)" : "");
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  if (!opt.trace) print_aliases(opt.workload, per_s, e2e["latency_p50_ms"], t);
  std::printf("fail_share = %.6f (%llu of %llu)\n",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& f : r.failures) std::printf("FAILED: %s\n", f.c_str());

  dhpf::json::Writer w(/*pretty=*/false);
  w.begin_object();
  w.member("correct", r.failed == 0);
  w.member("attempted", r.attempted);
  w.member("failed", r.failed);
  w.key("metrics");
  w.begin_object();
  auto emit = [&](const MetricDef& m, double v) {
    w.key(m.name);
    w.begin_object();
    w.member("value", v);
    w.member("unit", m.unit);
    w.end_object();
  };
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) {
      const auto it = r.layer.find(m.name);
      emit(m, it == r.layer.end() ? 0.0 : it->second);
    }
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return r.failed == 0 ? 0 : 1;
}
