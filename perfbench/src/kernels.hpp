// The paper kernels the benchmark compiles and runs, as HPF-lite source
// parameterised by extent. They are kept here, not read from examples/, so
// that the benchmark's inputs change only when the benchmark does.
#pragma once

#include <string>

namespace perfbench {

/// Figure 5.1-style 1D block-distributed stencil on P(4): b from a's
/// neighbours, then c from b and a (one halo fetch per side).
std::string stencil_1d(int n);

/// 2D Jacobi sweep, (BLOCK, BLOCK) on P(2, 2): a five-point relaxation
/// followed by a pointwise update.
std::string jacobi_2d(int n);

/// The SP model of examples/nas/sp_dhpf_style.hpf at extent n^3 on
/// P(2, 2): LOCALIZE'd compute_rhs with a depth-2 overlap, pipelined y and
/// z wavefront sweeps, and a local update. n = 12 is the example itself.
std::string sp_dhpf_style(int n);

}  // namespace perfbench
