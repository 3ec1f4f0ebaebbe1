#include "codegen/driver.hpp"

#include <chrono>
#include <iomanip>
#include <map>
#include <sstream>

#include "hpf/parser.hpp"
#include "support/json.hpp"
#include "trace/trace.hpp"

namespace dhpf::codegen {

namespace {

/// Run `fn`, recording its wall time and the metric delta it caused. The
/// context's registry is installed as the thread's current registry, so
/// counters bumped deep inside iset/analysis land in the per-request sink
/// the snapshot-diff below reads — attribution stays exact even with many
/// compiles in flight on other threads.
template <typename Fn>
auto timed_pass(const CompileContext& ctx, CompileReport& report, const std::string& name,
                Fn&& fn) {
  obs::Registry& reg = ctx.reg();
  obs::ScopedRegistry scoped(reg);
  const obs::MetricsSnapshot before = reg.snapshot();
  const auto t0 = std::chrono::steady_clock::now();
  // The trace span sits inside the t0..t1 window and wraps only fn(), so
  // the --profile pass totals and these PassStats measure the same interval.
  auto result = [&] {
    trace::Span span(std::string_view(name), trace::Kind::Pass);
    return fn();
  }();
  const auto t1 = std::chrono::steady_clock::now();
  PassStats ps;
  ps.name = name;
  ps.seconds = std::chrono::duration<double>(t1 - t0).count();
  ps.delta = reg.snapshot().diff(before);
  report.passes.push_back(std::move(ps));
  return result;
}

void summarize_procedures(const hpf::Program& prog, const cp::CpResult& cps,
                          const comm::CommPlan& plan, CompileReport& report) {
  std::map<int, std::size_t> events_by_stmt;  // stmt id -> active events
  for (const auto& ev : plan.events) {
    ++report.comm_events_total;
    if (ev.eliminated)
      ++report.comm_events_eliminated;
    else
      ++events_by_stmt[ev.stmt_id];
  }
  for (const auto& p : prog.procedures()) {
    CompileReport::ProcedureSummary ps;
    ps.name = p->name;
    hpf::walk(p->body, [&](hpf::Stmt& s, const std::vector<const hpf::Loop*>&) {
      if (s.is_loop()) return;
      ++ps.statements;
      const int id = s.id();
      if (cps.stmts.count(id) && cps.cp_of(id).is_replicated()) ++ps.replicated_cps;
      auto it = events_by_stmt.find(id);
      if (it != events_by_stmt.end()) ps.comm_events += it->second;
    });
    report.procedures.push_back(std::move(ps));
  }
}

}  // namespace

std::string CompileReport::to_string() const {
  std::ostringstream out;
  out << "compile report\n";
  out << "  communication events: " << comm_events_total << " ("
      << comm_events_eliminated << " eliminated by data availability)\n";
  out << "  procedures:\n";
  for (const auto& p : procedures)
    out << "    " << p.name << ": " << p.statements << " stmts, " << p.replicated_cps
        << " replicated CPs, " << p.comm_events << " comm events\n";
  for (const auto& pass : passes) {
    out << "  pass " << pass.name << ": " << std::fixed << std::setprecision(6)
        << pass.seconds << " s\n";
    std::istringstream lines(pass.delta.to_text());
    for (std::string line; std::getline(lines, line);)
      if (!line.empty()) out << "    " << line << "\n";
  }
  return out.str();
}

std::string CompileReport::to_json() const {
  json::Writer w;
  w.begin_object();
  w.member("comm_events_total", comm_events_total);
  w.member("comm_events_eliminated", comm_events_eliminated);
  w.key("procedures");
  w.begin_array();
  for (const auto& p : procedures) {
    w.begin_object();
    w.member("name", p.name);
    w.member("statements", p.statements);
    w.member("replicated_cps", p.replicated_cps);
    w.member("comm_events", p.comm_events);
    w.end_object();
  }
  w.end_array();
  w.key("passes");
  w.begin_array();
  for (const auto& pass : passes) {
    w.begin_object();
    w.member("name", pass.name);
    w.member("seconds", pass.seconds);
    w.key("counters");
    w.begin_object();
    for (const auto& [name, v] : pass.delta.counters) w.member(name, v);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

CompileResult compile(const hpf::Program& prog, const cp::SelectOptions& sopt,
                      const comm::CommOptions& copt, const CompileContext& ctx) {
  CompileResult r;
  r.cps = timed_pass(ctx, r.report, "cp.select", [&] { return cp::select_cps(prog, sopt); });
  r.plan = timed_pass(ctx, r.report, "comm.generate",
                      [&] { return comm::generate_comm(prog, r.cps, copt); });
  r.listing =
      timed_pass(ctx, r.report, "codegen.emit", [&] { return emit_spmd(prog, r.cps, r.plan); });
  summarize_procedures(prog, r.cps, r.plan, r.report);
  return r;
}

CompileResult compile_source(const std::string& source, hpf::Program* out_prog,
                             const cp::SelectOptions& sopt, const comm::CommOptions& copt,
                             const CompileContext& ctx) {
  require(out_prog != nullptr, "codegen", "compile_source: out_prog required");
  CompileReport parse_report;
  *out_prog = timed_pass(ctx, parse_report, "hpf.parse", [&] { return hpf::parse(source); });
  CompileResult r = compile(*out_prog, sopt, copt, ctx);
  r.report.passes.insert(r.report.passes.begin(), std::move(parse_report.passes.front()));
  return r;
}

}  // namespace dhpf::codegen
