#include "poly/poly_context.hpp"

#include "common/check.hpp"

namespace abc::poly {

PolyContext::PolyContext(int log_n, const std::vector<u64>& primes,
                         std::shared_ptr<backend::PolyBackend> backend)
    : log_n_(log_n),
      n_(std::size_t{1} << log_n),
      basis_(primes),
      backend_(backend ? std::move(backend) : backend::default_backend()) {
  ABC_CHECK_ARG(log_n >= 2 && log_n <= 17, "log_n out of range");
  ntt_.reserve(primes.size());
  dyadic_.reserve(primes.size());
  for (std::size_t i = 0; i < basis_.size(); ++i) {
    ntt_.push_back(xf::NttTables::shared(basis_.modulus(i), log_n));
    dyadic_.push_back(simd::DyadicModulus::make(basis_.modulus(i)));
  }
}

}  // namespace abc::poly
