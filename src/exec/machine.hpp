// Machine cost model for the modelled distributed-memory machine.
//
// The paper's platform is a 32-node IBM SP2 (120 MHz P2SC "thin" nodes,
// user-space MPI). We model per-rank computation with a sustained flop rate
// and point-to-point messages with a LogGP-flavoured cost:
//
//   sender busy:     send_overhead + bytes * byte_time
//   arrival:         send_start + latency + bytes * byte_time
//   receiver busy:   recv_overhead (after arrival)
//
// Constants below are calibrated to published SP2 measurements of the era
// (~65 MF/s sustained per P2SC node on CFD codes, ~40 us MPI latency,
// ~35 MB/s user-space bandwidth). Absolute times are therefore "SP2-like";
// the paper's conclusions are about relative performance.
//
// The model drives the virtual clock of the deterministic simulator
// (src/sim) and, optionally, the spin/sleep compute emulation of the real
// multi-threaded runtime (exec/threaded.hpp).
#pragma once

namespace dhpf::exec {

struct Machine {
  /// Seconds per floating-point operation (sustained, not peak).
  double flop_time = 1.0 / 65.0e6;
  /// End-to-end message latency in seconds.
  double latency = 40.0e-6;
  /// Seconds per payload byte (inverse bandwidth).
  double byte_time = 1.0 / 35.0e6;
  /// Sender-side fixed software overhead per message, seconds.
  double send_overhead = 8.0e-6;
  /// Receiver-side fixed software overhead per message, seconds.
  double recv_overhead = 8.0e-6;

  /// IBM SP2 (120MHz P2SC thin node) calibration — the paper's platform.
  static Machine sp2() { return Machine{}; }

  /// A "zero-cost network" machine, useful in tests that check functional
  /// behaviour without caring about timing.
  static Machine free_network() {
    Machine m;
    m.latency = m.byte_time = m.send_overhead = m.recv_overhead = 0.0;
    return m;
  }

  /// A commodity-Ethernet-cluster profile of the era: same CPUs, an order
  /// of magnitude worse network. Used by the network-sensitivity ablation.
  static Machine ethernet_cluster() {
    Machine m;
    m.latency = 400.0e-6;
    m.byte_time = 1.0 / 8.0e6;
    m.send_overhead = m.recv_overhead = 40.0e-6;
    return m;
  }

  /// A later tightly-coupled machine: ~4x the flops, ~10x the network.
  static Machine fast_switch() {
    Machine m;
    m.flop_time = 1.0 / 260.0e6;
    m.latency = 8.0e-6;
    m.byte_time = 1.0 / 300.0e6;
    m.send_overhead = m.recv_overhead = 2.0e-6;
    return m;
  }
};

}  // namespace dhpf::exec
