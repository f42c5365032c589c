#pragma once

/// @file pnl_pipeline.hpp
/// Functional model of one pipelined NTT lane: a chain of radix-2
/// single-path delay-feedback (SDF) stages, the canonical streaming
/// realization of the Cooley-Tukey dataflow (one sample in / one sample
/// out per cycle, FIFO of depth t per stage). The paper's P=8 MDC
/// backbone replicates this structure across P interleaved paths; the
/// per-stage twiddle schedule, FIFO sizing and fill latency are identical,
/// so this model validates *functionally* that the streaming hardware
/// computes exactly the transforms of transform/ntt.hpp and
/// transform/dwt.hpp.
///
/// The pipeline is templated on the element type and butterfly policy —
/// instantiating it for modular words and for complex floats from the
/// same code path demonstrates the NTT<->FFT reconfigurability of the RFE
/// at the dataflow level (paper Sec. III / IV-A; docs/EXPERIMENTS.md E7).

#include <optional>
#include <vector>

#include "common/bitops.hpp"
#include "common/check.hpp"
#include "rns/modulus.hpp"
#include "transform/dwt.hpp"
#include "transform/ntt.hpp"

namespace abc::core {

/// One radix-2 SDF stage with half-window (FIFO depth) t. Protocol: call
/// push() once per cycle with the next input sample; an output sample is
/// produced every cycle once the stage has filled (after t cycles).
///
/// Phase A (first t cycles of each 2t-window): incoming sample is stored;
/// the FIFO emits the deferred v-outputs of the previous window.
/// Phase B (next t cycles): the stored partner a meets incoming b:
///   u = a + w*b (emitted now),  v = a - w*b (deferred t cycles),
/// with w the window's twiddle — exactly the in-place CT butterfly of the
/// reference transform.
template <class Elem, class Arith>
class SdfStage {
 public:
  SdfStage(std::size_t t, Arith arith)
      : t_(t), fifo_(t), arith_(std::move(arith)) {
    ABC_CHECK_ARG(t >= 1, "stage FIFO depth must be >= 1");
  }

  std::size_t fifo_depth() const noexcept { return t_; }

  /// Feeds one sample with the twiddle of its window; returns the output
  /// sample once the stage has filled.
  std::optional<Elem> push(const Elem& x, const Elem& twiddle) {
    const std::size_t slot = cycle_ % t_;
    const bool phase_b = (cycle_ / t_) % 2 == 1;
    std::optional<Elem> out;
    if (cycle_ >= t_) {
      if (phase_b) {
        // Partner arrived: butterfly with the stored sample.
        const Elem a = fifo_[slot];
        const Elem wb = arith_.mul(x, twiddle);
        out = arith_.add(a, wb);        // u leaves immediately
        fifo_[slot] = arith_.sub(a, wb);  // v deferred t cycles
      } else {
        out = fifo_[slot];  // deferred v from the previous window
        fifo_[slot] = x;    // store the new a
      }
    } else {
      fifo_[slot] = x;  // initial fill
    }
    ++cycle_;
    return out;
  }

 private:
  std::size_t t_;
  std::vector<Elem> fifo_;
  Arith arith_;
  std::size_t cycle_ = 0;
};

/// Arithmetic policies: the "reconfigurable" part of the RFE.
struct ModularArith {
  rns::Modulus q;
  u64 add(u64 a, u64 b) const { return q.add(a, b); }
  u64 sub(u64 a, u64 b) const { return q.sub(a, b); }
  u64 mul(u64 a, u64 b) const { return q.mul(a, b); }
};

struct ComplexArith {
  xf::Cx<double> add(const xf::Cx<double>& a, const xf::Cx<double>& b) const {
    return a + b;
  }
  xf::Cx<double> sub(const xf::Cx<double>& a, const xf::Cx<double>& b) const {
    return a - b;
  }
  xf::Cx<double> mul(const xf::Cx<double>& a, const xf::Cx<double>& b) const {
    return a * b;
  }
};

/// Streaming pipeline report.
struct PipelineRun {
  std::size_t cycles = 0;         // cycles until the last output emerged
  std::size_t fill_latency = 0;   // cycles before the first output
  std::size_t fifo_words = 0;     // total FIFO storage across stages
};

/// Runs a full streaming negacyclic NTT through log2(N) SDF stages fed in
/// natural order; output is produced in natural order of the bit-reversed-
/// output transform (i.e. identical to NttTables::forward).
PipelineRun streaming_ntt(const xf::NttTables& tables,
                          std::span<const u64> input, std::span<u64> output);

/// Same pipeline in FFT mode (complex butterflies, DWT twiddles),
/// identical stage/FIFO structure — the RFE reconfigurability.
PipelineRun streaming_dwt(const xf::CkksDwtPlan& plan,
                          std::span<const xf::Cx<double>> input,
                          std::span<xf::Cx<double>> output);

}  // namespace abc::core
