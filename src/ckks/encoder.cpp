#include "ckks/encoder.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.hpp"
#include "poly/crt_block_composer.hpp"
#include "transform/softfloat.hpp"

namespace abc::ckks {

using xf::Cx;
using xf::Rounded;

CkksEncoder::CkksEncoder(std::shared_ptr<const CkksContext> ctx)
    : ctx_(std::move(ctx)) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
}

template <class F>
Plaintext CkksEncoder::encode_as(std::span<const std::complex<double>> values,
                                 std::size_t limbs) const {
  const xf::CkksDwtPlan& plan = ctx_->dwt();
  const std::size_t n = ctx_->n();
  const std::size_t slot_count = ctx_->slots();
  ABC_CHECK_ARG(values.size() <= slot_count, "too many values for slot count");

  std::vector<Cx<F>> buf(n, Cx<F>{F(0.0), F(0.0)});
  const auto map = plan.index_map();
  for (std::size_t i = 0; i < values.size(); ++i) {
    buf[map[i]] = Cx<F>{F(values[i].real()), F(values[i].imag())};
    buf[map[slot_count + i]] = Cx<F>{F(values[i].real()), F(-values[i].imag())};
  }
  plan.inverse(std::span<Cx<F>>(buf));

  const double scale = ctx_->params().scale();
  std::vector<i64> coeffs(n);
  for (std::size_t j = 0; j < n; ++j) {
    const F scaled = buf[j].re * F(scale);
    const double v = xf::as_double(scaled);
    ABC_CHECK_ARG(std::abs(v) < 0x1.0p62,
                  "encoded coefficient overflows 63 bits; reduce input "
                  "magnitude or scale");
    coeffs[j] = std::llround(v);
  }
  xf::op_counts().other += n;  // rounding pass
  Plaintext pt{ctx_->make_poly_for_overwrite(limbs, poly::Domain::kCoeff),
               scale};
  pt.poly.set_from_signed(coeffs);
  return pt;
}

Plaintext CkksEncoder::encode(std::span<const std::complex<double>> values,
                              std::size_t limbs) const {
  return encode_as<double>(values, limbs);
}

Plaintext CkksEncoder::encode_real(std::span<const double> values,
                                   std::size_t limbs) const {
  std::vector<std::complex<double>> cx(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) cx[i] = {values[i], 0.0};
  return encode(cx, limbs);
}

Plaintext CkksEncoder::encode_with_mantissa(
    std::span<const std::complex<double>> values, std::size_t limbs,
    int mantissa_bits) const {
  xf::FpPrecision guard(mantissa_bits);
  return encode_as<Rounded>(values, limbs);
}

template <class F>
std::vector<std::complex<double>> CkksEncoder::decode_as(
    const Plaintext& pt) const {
  ABC_CHECK_ARG(pt.poly.domain() == poly::Domain::kCoeff,
                "decode expects a coefficient-domain plaintext");
  ABC_CHECK_ARG(pt.scale > 0, "plaintext scale must be positive");
  const xf::CkksDwtPlan& plan = ctx_->dwt();
  const std::size_t n = ctx_->n();
  const std::size_t limbs = pt.limbs();
  poly::CrtBlockComposer composer(*ctx_->poly_context(), limbs);
  std::vector<const u64*> rows(limbs);
  for (std::size_t i = 0; i < limbs; ++i) rows[i] = pt.poly.limb(i).data();
  // Centered values go straight into the transform buffer, a block at a time.
  std::vector<Cx<F>> buf(n);
  std::array<double, poly::CrtBlockComposer::kBlock> block;
  const double inv_scale = 1.0 / pt.scale;
  for (std::size_t j0 = 0; j0 < n; j0 += block.size()) {
    const std::span<double> centered(block.data(),
                                     std::min(block.size(), n - j0));
    composer.compose(rows, j0, centered);
    for (std::size_t k = 0; k < centered.size(); ++k) {
      buf[j0 + k] = Cx<F>{F(centered[k] * inv_scale), F(0.0)};
    }
  }
  xf::op_counts().other += n * limbs;  // CRT combine work
  plan.forward(std::span<Cx<F>>(buf));
  const auto map = plan.index_map();
  std::vector<std::complex<double>> out(ctx_->slots());
  for (std::size_t i = 0; i < out.size(); ++i) {
    const Cx<F>& z = buf[map[i]];
    out[i] = {xf::as_double(z.re), xf::as_double(z.im)};
  }
  return out;
}

std::vector<std::complex<double>> CkksEncoder::decode(
    const Plaintext& pt) const {
  return decode_as<double>(pt);
}

std::vector<std::complex<double>> CkksEncoder::decode_with_mantissa(
    const Plaintext& pt, int mantissa_bits) const {
  xf::FpPrecision guard(mantissa_bits);
  return decode_as<Rounded>(pt);
}

PrecisionReport compare_slots(std::span<const std::complex<double>> reference,
                              std::span<const std::complex<double>> measured) {
  ABC_CHECK_ARG(reference.size() == measured.size(), "size mismatch");
  PrecisionReport r;
  double sum = 0.0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double err = std::abs(reference[i] - measured[i]);
    r.max_abs_error = std::max(r.max_abs_error, err);
    sum += err;
  }
  r.mean_abs_error = reference.empty() ? 0.0 : sum / static_cast<double>(reference.size());
  r.precision_bits =
      r.max_abs_error > 0 ? -std::log2(r.max_abs_error) : 60.0;
  return r;
}

}  // namespace abc::ckks
