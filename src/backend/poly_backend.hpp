#pragma once

/// @file poly_backend.hpp
/// Pluggable execution backend for the RNS polynomial layer.
///
/// The math layers (transform/, rns/) define *what* a kernel computes; a
/// PolyBackend decides *how* the limb-wise work is executed — serially, over
/// a persistent worker pool, or (in future backends) with SIMD batches or an
/// accelerator offload. RnsPoly routes every element-wise operation and
/// domain conversion through the backend owned by its PolyContext, so
/// swapping the backend changes the execution strategy of the whole stack
/// without touching the math.
///
/// Contract highlights:
///  * All kernels are deterministic: results are bit-identical for any
///    worker count (parallelism only partitions independent limb/batch
///    work, never reorders a reduction).
///  * Implementations must fold operation counts produced on worker threads
///    back into the *calling* thread's xf::op_counts() accumulator, so the
///    Fig. 2b analytic accounting stays exact under any backend.

#include <cstddef>
#include <functional>
#include <memory>
#include <span>

#include "common/types.hpp"

namespace abc::poly {
class PolyContext;
}

namespace abc::backend {

class PolyBackend {
 public:
  virtual ~PolyBackend() = default;

  /// Human-readable backend identifier ("scalar", "thread_pool", ...).
  virtual const char* name() const noexcept = 0;

  /// Number of independent execution lanes. Callers that keep per-worker
  /// state (scratch buffers, samplers) size it by this; the `worker`
  /// argument of a Job is always < workers().
  virtual std::size_t workers() const noexcept = 0;

  using Job = std::function<void(std::size_t index, std::size_t worker)>;

  /// Executes job(i, worker) for every i in [0, count), each index exactly
  /// once. Nested calls from inside a job run inline on the same worker, so
  /// composite operations (e.g. a batch item doing per-limb NTTs) are safe.
  /// If a job throws, implementations rethrow (the first) exception on the
  /// calling thread after the region completes.
  virtual void parallel_for(std::size_t count, const Job& job) = 0;

  // -- batched limb-wise kernels --------------------------------------------
  // All spans cover `limbs * ctx.n()` contiguous coefficients in limb-major
  // order (RnsPoly storage). Default implementations dispatch one limb per
  // parallel_for index through the shared scalar limb kernels; specialized
  // backends may override any of them wholesale.

  virtual void ntt_forward(const poly::PolyContext& ctx, std::span<u64> data,
                           std::size_t limbs);
  virtual void ntt_inverse(const poly::PolyContext& ctx, std::span<u64> data,
                           std::size_t limbs);

  /// dst[j] = dst[j] + src[j] (mod q_i), per limb i.
  virtual void add(const poly::PolyContext& ctx, std::span<u64> dst,
                   std::span<const u64> src, std::size_t limbs);
  /// dst[j] = dst[j] - src[j] (mod q_i).
  virtual void sub(const poly::PolyContext& ctx, std::span<u64> dst,
                   std::span<const u64> src, std::size_t limbs);
  /// Dyadic product dst[j] = dst[j] * src[j] (mod q_i).
  virtual void mul(const poly::PolyContext& ctx, std::span<u64> dst,
                   std::span<const u64> src, std::size_t limbs);
  /// dst[j] += a[j] * b[j] (mod q_i), single pass.
  virtual void fma(const poly::PolyContext& ctx, std::span<u64> dst,
                   std::span<const u64> a, std::span<const u64> b,
                   std::size_t limbs);
  /// dst[j] = -dst[j] (mod q_i).
  virtual void negate(const poly::PolyContext& ctx, std::span<u64> dst,
                      std::size_t limbs);
  /// dst[j] = src[j] - dst[j] (mod q_i) — fused negate-then-add, one pass.
  /// Op counts match the unfused chain exactly.
  virtual void negate_add(const poly::PolyContext& ctx, std::span<u64> dst,
                          std::span<const u64> src, std::size_t limbs);
  /// out[j] = base[j] + a[j] * b[j] (mod q_i) — fused copy-then-fma, one
  /// pass. out may alias base but not a or b.
  virtual void fma_into(const poly::PolyContext& ctx, std::span<u64> out,
                        std::span<const u64> base, std::span<const u64> a,
                        std::span<const u64> b, std::size_t limbs);
  /// out[j] = base[j] - a[j] * b[j] (mod q_i) — fused mul-then-negate_add,
  /// one pass. out may alias base but not a or b. Op counts match the
  /// unfused mul + negate_add chain exactly.
  virtual void fms_into(const poly::PolyContext& ctx, std::span<u64> out,
                        std::span<const u64> base, std::span<const u64> a,
                        std::span<const u64> b, std::size_t limbs);
  /// dst[j] = dst[j] * (scalar mod q_i) (mod q_i).
  virtual void mul_scalar(const poly::PolyContext& ctx, std::span<u64> dst,
                          std::size_t limbs, u64 scalar);
  /// RNS-expand centered signed coefficients into every limb.
  virtual void expand_signed(const poly::PolyContext& ctx, std::span<u64> dst,
                             std::size_t limbs, std::span<const i64> coeffs);
  virtual void expand_signed_i32(const poly::PolyContext& ctx,
                                 std::span<u64> dst, std::size_t limbs,
                                 std::span<const i32> coeffs);
};

/// Process-wide default backend (a shared ScalarBackend); what a
/// PolyContext uses when none is supplied.
std::shared_ptr<PolyBackend> default_backend();

}  // namespace abc::backend
