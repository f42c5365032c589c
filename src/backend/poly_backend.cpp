#include "backend/poly_backend.hpp"

#include "backend/scalar_backend.hpp"

namespace abc::backend {

std::shared_ptr<PolyBackend> default_backend() {
  static std::shared_ptr<PolyBackend> instance =
      std::make_shared<ScalarBackend>();
  return instance;
}

}  // namespace abc::backend
