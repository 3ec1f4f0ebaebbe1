#include "sim/backend.hpp"

#include <chrono>

#include "trace/trace.hpp"

namespace dhpf::sim {

void run_backend(const BackendOptions& opt, int nprocs, const exec::Machine& machine,
                 const std::function<exec::Task(exec::Channel&)>& body, BackendRun& out) {
  out.backend = opt.backend;
  if (opt.backend == exec::Backend::Sim) {
    DHPF_TRACE_SPAN("exec.sim", trace::Kind::Phase);
    const auto t0 = std::chrono::steady_clock::now();
    Engine engine(nprocs, machine, opt.record_trace);
    engine.run(body);
    out.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    out.elapsed = engine.elapsed();
    out.stats = engine.stats();
    if (opt.record_trace) out.trace = engine.trace();
    return;
  }
  const bool shm = opt.backend == exec::Backend::Shm;
  const trace::Span span(shm ? "exec.shm" : "exec.mp", trace::Kind::Phase);
  exec::threaded::Options topt = shm ? opt.shm : opt.mp;
  topt.machine = machine;
  exec::threaded::Stats& stats = shm ? out.shm_stats : out.mp_stats;
  out.wall_seconds = exec::threaded::run(opt.backend, nprocs, topt, body, &stats);
  out.stats.messages = stats.messages;
  out.stats.bytes = stats.bytes;
}

}  // namespace dhpf::sim
