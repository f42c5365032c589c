#include "ckks/context.hpp"

#include <mutex>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "rns/ntt_prime.hpp"

namespace abc::ckks {

CkksContext::CkksContext(const CkksParams& params,
                         std::shared_ptr<backend::PolyBackend> backend)
    : params_(params),
      primes_(rns::select_prime_chain(params.prime_bits, params.log_n,
                                      params.num_limbs)),
      poly_ctx_(poly::PolyContext::create(params.log_n, primes_,
                                          std::move(backend))),
      dwt_(xf::CkksDwtPlan::shared(params.log_n)) {}

std::shared_ptr<const CkksContext> CkksContext::create(
    const CkksParams& params, std::shared_ptr<backend::PolyBackend> backend) {
  params.validate();
#if defined(__GLIBC__)
  // Fixed heap thresholds, once per process and before the first
  // polynomial: a 12.6 MB paper-point block always comes from the heap and
  // freed heap stays mapped, so steady requests reuse their pages whatever
  // setup freed first (docs/ARCHITECTURE.md, "glibc heap thresholds").
  static std::once_flag heap_thresholds;
  std::call_once(heap_thresholds, [] {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
  });
#endif
  return std::make_shared<const CkksContext>(params, std::move(backend));
}

}  // namespace abc::ckks
