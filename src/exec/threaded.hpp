// dhpf::exec::threaded — the real-thread runtime behind the mp and shm
// backends.
//
// Where src/sim *simulates* a distributed-memory machine in virtual time,
// this runtime *executes* the same SPMD node programs on hardware, one OS
// thread per rank in this process, with per-rank mailboxes (mutex +
// condition variable), tagged send/recv with wildcard source, nonblocking
// irecv/wait, and the shared collectives of exec/collectives.hpp. On the
// mp backend this is the moral equivalent of the paper's MPI runs on the
// 32-node SP2 (§8), scaled to a shared-memory node: the compiler's
// communication plans are validated under real concurrency and real
// (monotonic-clock) time instead of a cost model.
//
// The shm backend is the same runtime plus the two primitives a
// shared-memory lowering needs:
//
//   * shm::barrier(ch) — a phase barrier across all ranks of the run. The
//     codegen layer places a barrier pair around every communication-event
//     instance derived from the comm plan, which turns each fetch /
//     write-back into direct reads of the producing rank's storage with no
//     message copies (see codegen::exec_event and docs/runtime.md).
//   * shm::note_shared_read(ch, bytes) — accounting for those direct
//     reads, the shm analogue of message bytes (Stats::shared_read_bytes,
//     obs counter shm.shared_bytes).
//
// Both refuse a channel that is not from an shm run, so an mp run never
// synchronizes through shared memory. The exec::Backend passed to run()
// picks that, and the names of the obs counters, trace spans, error
// components and watchdog dump ("mp.*" / "shm.*"); nothing else differs.
//
// Determinism: message order between one (source, tag) pair and a receiver
// is FIFO, exactly as on the simulator, so node programs whose receives
// name their sources — everything codegen emits, the NAS variants, and the
// collectives — produce bit-identical results on every backend. Wildcard
// (kAnySource) receives, by contrast, match in real arrival order, which
// depends on OS scheduling: *nondeterministic across sources* here,
// deterministic (earliest virtual arrival, ties by source rank) on sim.
// Barriers are deterministic, and the barrier-synchronized direct reads are
// deterministic by construction: within a barrier epoch each rank reads
// only locations no other rank is writing (ownership-disjoint), so results
// are bit-identical to the serial oracle, the simulator, and mp.
//
// Liveness: CI must never hang. Every blocking receive and barrier wait
// carries a configurable timeout, and a watchdog thread detects global
// deadlock (every unfinished rank blocked — in a receive with no matching
// message, or at a barrier whose generation cannot advance — with no
// delivery or barrier progress across the scan) and aborts the run; both
// raise dhpf::Error instead of hanging. A rank that dies while its peers
// wait at a barrier is therefore reported, not waited on.
//
// compute(flops) does not burn host cycles by default (ComputeMode::Noop):
// the kernels' real arithmetic is the work, and timings come from the
// monotonic clock. For machine-model emulation studies, Spin busy-waits
// and Sleep sleeps for the modelled duration (scaled by time_scale); Sleep
// lets P ranks overlap their modelled compute even on a single host core,
// which keeps measured-speedup experiments meaningful on small CI boxes.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exec/channel.hpp"
#include "exec/task.hpp"

namespace dhpf::exec::threaded {

/// How Channel::compute(flops)/elapse(s) behave on real threads.
enum class ComputeMode {
  Noop,   ///< account modelled seconds only; no host time consumed
  Spin,   ///< busy-wait for the modelled duration * time_scale
  Sleep,  ///< sleep for the modelled duration * time_scale (overlaps ranks)
};

struct Options {
  ComputeMode compute_mode = ComputeMode::Noop;
  /// Cost model used to convert flops to seconds for Spin/Sleep and served
  /// by Channel::machine() for cost heuristics (e.g. pipeline tiling).
  Machine machine = Machine::sp2();
  /// Dilation factor applied to modelled compute time in Spin/Sleep modes.
  double time_scale = 1.0;
  /// Per-receive / per-barrier timeout in real seconds; waiting longer
  /// raises dhpf::Error. <= 0 disables (the watchdog still guards CI).
  double recv_timeout_s = 30.0;
  /// Blocked-rank watchdog scan period in real seconds; <= 0 disables.
  /// Overridable at runtime via the DHPF_WATCHDOG_MS environment variable
  /// (milliseconds; 0 disables) — see watchdog_period_from_env.
  double watchdog_period_s = 0.05;
};

/// Resolve the effective watchdog period: DHPF_WATCHDOG_MS (a real number
/// of milliseconds; <= 0 disables the watchdog) when set and parseable,
/// otherwise `fallback`. Lets CI tighten the deadlock scan and debuggers
/// disable it without recompiling. Exposed for direct unit testing; run()
/// applies it to Options::watchdog_period_s.
double watchdog_period_from_env(double fallback);

/// Per-rank activity counters (real seconds where noted). The barrier and
/// shared-read fields stay zero on mp.
struct RankStats {
  std::size_t sends = 0;
  std::size_t recvs = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  std::size_t barriers = 0;            ///< barrier episodes this rank entered
  std::size_t shared_read_bytes = 0;   ///< direct shared reads (note_shared_read)
  double wait_seconds = 0.0;     ///< real time blocked in recv or at a barrier
  double compute_seconds = 0.0;  ///< *modelled* seconds via compute()/elapse()
};

struct Stats {
  double wall_seconds = 0.0;  ///< real elapsed time of the run
  std::size_t messages = 0;
  std::size_t bytes = 0;
  std::size_t barriers = 0;           ///< barrier episodes (global releases)
  std::size_t shared_read_bytes = 0;  ///< direct shared reads, all ranks
  std::vector<RankStats> ranks;

  /// Real-time phase breakdown summed over ranks: for each phase label (see
  /// Channel::set_phase) the wall time ranks spent inside it, split into
  /// busy (executing) and wait (blocked in recv or at a barrier) seconds.
  struct PhaseRow {
    std::string phase;
    double busy = 0.0;
    double wait = 0.0;
  };
  std::vector<PhaseRow> phases;
};

/// Execute `body(channel)` once per rank, each rank on its own OS thread,
/// and return the real elapsed seconds. `backend` is Backend::Mp or
/// Backend::Shm. Throws dhpf::Error if any rank's coroutine throws, a
/// receive or barrier times out, or the watchdog detects deadlock.
///
/// Side effect: bumps dhpf::obs under the backend's name <b> — counters
/// <b>.runs / <b>.messages / <b>.bytes (plus shm.barriers /
/// shm.shared_bytes on shm), per-rank gauges
/// <b>.rank<r>.{sends,recvs,wait_seconds}, and timers <b>.phase.<label>
/// accumulating real busy seconds per phase.
double run(Backend backend, int nranks, const Options& opt,
           const std::function<Task(Channel&)>& body, Stats* stats_out = nullptr);

}  // namespace dhpf::exec::threaded

namespace dhpf::mp {
using ComputeMode = exec::threaded::ComputeMode;
}  // namespace dhpf::mp

namespace dhpf::shm {

using ComputeMode = exec::threaded::ComputeMode;

/// Rendezvous of every rank of the current shm run; returns once all ranks
/// have arrived. `ch` must be a channel handed out by an shm run — calling
/// this with a sim or mp channel raises dhpf::Error. Throws on timeout or
/// when the watchdog aborts the run (a peer died before the barrier).
void barrier(exec::Channel& ch);

/// Account `bytes` of direct shared-memory reads performed by this rank
/// between two barriers (the shm analogue of received message bytes).
void note_shared_read(exec::Channel& ch, std::size_t bytes);

/// True iff `ch` belongs to an shm run (barrier()/note_shared_read() work).
bool is_shm_channel(const exec::Channel& ch);

}  // namespace dhpf::shm
