#include "ckks/context.hpp"

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
  return std::make_shared<const CkksContext>(params, std::move(backend));
}

}  // namespace abc::ckks
