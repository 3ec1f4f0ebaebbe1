// One dispatch over the three execution backends.
//
// codegen::run_spmd and nas::run_variant both run node programs on
// whichever backend the caller picked and report the same fields. The
// choice, the per-backend tuning and those fields live here, in the lowest
// library that sees both the simulator and the threaded runtime.
#pragma once

#include <functional>

#include "exec/channel.hpp"
#include "exec/machine.hpp"
#include "exec/task.hpp"
#include "exec/threaded.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"

namespace dhpf::sim {

/// Which backend runs the node programs, and how the threaded ones behave.
struct BackendOptions {
  exec::Backend backend = exec::Backend::Sim;
  exec::threaded::Options mp;   ///< mp backend tuning (compute mode, timeouts)
  exec::threaded::Options shm;  ///< shm backend tuning (compute mode, timeouts)
  bool record_trace = false;    ///< sim backend only
};

/// What a run reports, whichever backend executed it.
struct BackendRun {
  exec::Backend backend = exec::Backend::Sim;
  double elapsed = 0.0;       ///< simulated seconds (sim backend; 0 on mp/shm)
  double wall_seconds = 0.0;  ///< real (monotonic-clock) seconds of the run
  Stats stats;                ///< messages/bytes filled on every backend
  TraceLog trace;             ///< populated when record_trace was requested
  exec::threaded::Stats mp_stats;   ///< populated on the mp backend
  exec::threaded::Stats shm_stats;  ///< populated on the shm backend
};

/// Run `body` once per rank on `nprocs` ranks of opt.backend and fill the
/// BackendRun fields of `out`. `machine` is the simulator's cost model and
/// the threaded runtime's Options::machine. Throws dhpf::Error on failure.
void run_backend(const BackendOptions& opt, int nprocs, const exec::Machine& machine,
                 const std::function<exec::Task(exec::Channel&)>& body, BackendRun& out);

}  // namespace dhpf::sim
