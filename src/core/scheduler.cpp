#include "core/scheduler.hpp"

#include <string>

namespace abc::core {
namespace {

/// 256-bit scratchpad port shared by the DMA engines (paper Sec. V-A).
constexpr double kScratchPortBytesPerCycle = 32.0;

std::string tag(const char* what, std::size_t job, std::size_t limb) {
  return std::string(what) + "#j" + std::to_string(job) + ".l" +
         std::to_string(limb);
}

}  // namespace

JobScheduler::JobScheduler(const ArchConfig& config) : cfg_(config) {
  cfg_.validate();
}

void JobScheduler::add_encode_encrypt(std::vector<Pass>& passes, int rsc,
                                      std::size_t job_id) const {
  const double n = static_cast<double>(cfg_.n());
  const std::size_t limbs = cfg_.fresh_limbs;
  // Symmetric seeded: one NTT (m + e) per limb, c1 regenerated from its
  // seed. Public key: NTTs of u, m + e0 and e1, both components shipped.
  const bool public_key = cfg_.enc_profile == EncryptProfile::kPublicKey;
  const int ntt_passes_per_limb = public_key ? 3 : 1;

  // DMA-in: N/2 complex-double message words.
  const std::size_t dma_in = passes.size();
  passes.push_back(Pass{
      .label = tag("dma_in_msg", job_id, 0),
      .unit = UnitKind::kDmaIn,
      .rsc = rsc,
      .elems = n / 2,
      .unit_rate = kScratchPortBytesPerCycle / 16.0,
      .fill_latency = 0,
      .dram_read_bytes_per_elem = 16.0,
      .dram_write_bytes_per_elem = 0,
      .deps = {}});

  // IFFT over N points on one PNL (FFT mode of the RFE).
  const std::size_t ifft = passes.size();
  passes.push_back(Pass{
      .label = tag("ifft", job_id, 0),
      .unit = UnitKind::kPnl,
      .rsc = rsc,
      .elems = n,
      .unit_rate = static_cast<double>(cfg_.lanes),
      .fill_latency = transform_fill(),
      .dram_read_bytes_per_elem = twiddle_read_per_elem(/*fft=*/true),
      .dram_write_bytes_per_elem = 0,
      .deps = {dma_in}});

  const bool prng_on_chip = cfg_.placement.randomness_on_chip;
  const double coeff_bytes = cfg_.int_coeff_bytes();

  for (std::size_t l = 0; l < limbs; ++l) {
    // RNS expansion of the scaled message coefficients into limb l.
    const std::size_t expand = passes.size();
    passes.push_back(Pass{
        .label = tag("rns_expand", job_id, l),
        .unit = UnitKind::kMse,
        .rsc = rsc,
        .elems = n,
        .unit_rate = static_cast<double>(cfg_.mse_width),
        .fill_latency = 0,
        .dram_read_bytes_per_elem = 0,
        .dram_write_bytes_per_elem = 0,
        .deps = {ifft}});

    // NTT passes for this limb: the first transforms the (message + error)
    // polynomial; additional passes transform mask/error polynomials whose
    // inputs come from the PRNG (on-chip) or DRAM (Base configuration).
    std::vector<std::size_t> ntt_ids;
    for (int k = 0; k < ntt_passes_per_limb; ++k) {
      const std::size_t ntt = passes.size();
      const bool message_path = (k == 0);
      passes.push_back(Pass{
          .label = tag(message_path ? "ntt_msg" : "ntt_rand", job_id, l),
          .unit = UnitKind::kPnl,
          .rsc = rsc,
          .elems = n,
          .unit_rate = static_cast<double>(cfg_.lanes),
          .fill_latency = transform_fill(),
          .dram_read_bytes_per_elem =
              twiddle_read_per_elem(false) +
              ((message_path || prng_on_chip) ? 0.0 : coeff_bytes),
          .dram_write_bytes_per_elem = 0,
          .deps = message_path ? std::vector<std::size_t>{expand}
                               : std::vector<std::size_t>{}});
      ntt_ids.push_back(ntt);
    }

    // MSE combine: mask * pk (+ error, + message). Of the two public-key
    // streams only pk0 comes from DRAM (pk1 = PRNG(a)); Base fetches both.
    const double pk_read =
        public_key ? coeff_bytes * (prng_on_chip ? 1.0 : 2.0) : 0.0;
    const double rand_read =
        prng_on_chip ? 0.0 : coeff_bytes;  // error stream for the combine
    const std::size_t combine = passes.size();
    passes.push_back(Pass{
        .label = tag("mse_combine", job_id, l),
        .unit = UnitKind::kMse,
        .rsc = rsc,
        .elems = n,
        .unit_rate = static_cast<double>(cfg_.mse_width),
        .fill_latency = 0,
        .dram_read_bytes_per_elem = pk_read + rand_read,
        .dram_write_bytes_per_elem = 0,
        .deps = ntt_ids});

    // Write the finished ciphertext limb(s) out.
    const double components = public_key ? 2.0 : 1.0;
    passes.push_back(Pass{
        .label = tag("dma_out_ct", job_id, l),
        .unit = UnitKind::kDmaOut,
        .rsc = rsc,
        .elems = n * components,
        .unit_rate = kScratchPortBytesPerCycle / coeff_bytes,
        .fill_latency = 0,
        .dram_read_bytes_per_elem = 0,
        .dram_write_bytes_per_elem = coeff_bytes,
        .deps = {combine}});
  }
}

void JobScheduler::add_decode_decrypt(std::vector<Pass>& passes, int rsc,
                                      std::size_t job_id) const {
  const double n = static_cast<double>(cfg_.n());
  const std::size_t limbs = cfg_.returned_limbs;
  const double coeff_bytes = cfg_.int_coeff_bytes();
  const bool prng_on_chip = cfg_.placement.randomness_on_chip;

  // DMA-in: both ciphertext polynomials at the returned level.
  const std::size_t dma_in = passes.size();
  passes.push_back(Pass{
      .label = tag("dma_in_ct", job_id, 0),
      .unit = UnitKind::kDmaIn,
      .rsc = rsc,
      .elems = 2.0 * n * static_cast<double>(limbs),
      .unit_rate = kScratchPortBytesPerCycle / coeff_bytes,
      .fill_latency = 0,
      .dram_read_bytes_per_elem = coeff_bytes,
      .dram_write_bytes_per_elem = 0,
      .deps = {dma_in /*self placeholder, replaced below*/}});
  passes.back().deps.clear();

  std::vector<std::size_t> intt_ids;
  for (std::size_t l = 0; l < limbs; ++l) {
    // Phase accumulation c0 + c1 * s on the MSE. The secret key limb is
    // regenerated on chip (PRNG + cached NTT form) or streamed from DRAM
    // in the Base configuration.
    const std::size_t phase = passes.size();
    passes.push_back(Pass{
        .label = tag("mse_phase", job_id, l),
        .unit = UnitKind::kMse,
        .rsc = rsc,
        .elems = n,
        .unit_rate = static_cast<double>(cfg_.mse_width),
        .fill_latency = 0,
        .dram_read_bytes_per_elem = prng_on_chip ? 0.0 : coeff_bytes,
        .dram_write_bytes_per_elem = 0,
        .deps = {dma_in}});

    const std::size_t intt = passes.size();
    passes.push_back(Pass{
        .label = tag("intt", job_id, l),
        .unit = UnitKind::kPnl,
        .rsc = rsc,
        .elems = n,
        .unit_rate = static_cast<double>(cfg_.lanes),
        .fill_latency = transform_fill(),
        .dram_read_bytes_per_elem = twiddle_read_per_elem(false),
        .dram_write_bytes_per_elem = 0,
        .deps = {phase}});
    intt_ids.push_back(intt);
  }

  // CRT combine across limbs (MSE), then the decode FFT (PNL).
  const std::size_t crt = passes.size();
  passes.push_back(Pass{
      .label = tag("crt_combine", job_id, 0),
      .unit = UnitKind::kMse,
      .rsc = rsc,
      .elems = n,
      .unit_rate = static_cast<double>(cfg_.mse_width),
      .fill_latency = 0,
      .dram_read_bytes_per_elem = 0,
      .dram_write_bytes_per_elem = 0,
      .deps = intt_ids});

  const std::size_t fft = passes.size();
  passes.push_back(Pass{
      .label = tag("fft", job_id, 0),
      .unit = UnitKind::kPnl,
      .rsc = rsc,
      .elems = n,
      .unit_rate = static_cast<double>(cfg_.lanes),
      .fill_latency = transform_fill(),
      .dram_read_bytes_per_elem = twiddle_read_per_elem(/*fft=*/true),
      .dram_write_bytes_per_elem = 0,
      .deps = {crt}});

  passes.push_back(Pass{
      .label = tag("dma_out_msg", job_id, 0),
      .unit = UnitKind::kDmaOut,
      .rsc = rsc,
      .elems = n / 2,
      .unit_rate = kScratchPortBytesPerCycle / 16.0,
      .fill_latency = 0,
      .dram_read_bytes_per_elem = 0,
      .dram_write_bytes_per_elem = 16.0,
      .deps = {fft}});
}

std::vector<Pass> JobScheduler::build(OperatingMode mode, int jobs) const {
  ABC_CHECK_ARG(jobs >= 1, "need at least one job");
  std::vector<Pass> passes;
  for (int j = 0; j < jobs; ++j) {
    const int rsc = j % cfg_.num_rsc;
    switch (mode) {
      case OperatingMode::kDualEncrypt:
        add_encode_encrypt(passes, rsc, static_cast<std::size_t>(j));
        break;
      case OperatingMode::kDualDecrypt:
        add_decode_decrypt(passes, rsc, static_cast<std::size_t>(j));
        break;
      case OperatingMode::kConcurrent:
        if (rsc == 0) {
          add_encode_encrypt(passes, 0, static_cast<std::size_t>(j));
        } else {
          add_decode_decrypt(passes, 1, static_cast<std::size_t>(j));
        }
        break;
    }
  }
  return passes;
}

}  // namespace abc::core
