#pragma once

/// @file poly_backend.hpp
/// Pluggable execution backend for the RNS polynomial layer.
///
/// The math layers (transform/, rns/, simd/) define *what* a kernel
/// computes; a PolyBackend decides *how* the limb-wise work is scheduled —
/// serially or over a persistent worker pool. RnsPoly fans every
/// element-wise operation and domain conversion out across its limbs
/// through parallel_for of the backend its PolyContext owns, so swapping
/// the backend changes the execution strategy of the whole stack without
/// touching the math.
///
/// Contract highlights:
///  * All work is deterministic: results are bit-identical for any worker
///    count (parallelism only partitions independent limb/batch work,
///    never reorders a reduction).
///  * Implementations must fold operation counts produced on worker threads
///    back into the *calling* thread's xf::op_counts() accumulator, so the
///    Fig. 2b analytic accounting stays exact under any backend.

#include <cstddef>
#include <functional>
#include <memory>

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
};

/// Process-wide default backend (a shared ScalarBackend); what a
/// PolyContext uses when none is supplied.
std::shared_ptr<PolyBackend> default_backend();

}  // namespace abc::backend
