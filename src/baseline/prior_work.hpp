#pragma once

/// @file prior_work.hpp
/// Analytic models of the comparison points in Fig. 1 and Fig. 5(a):
///
///  * [34] Wang et al. (TCAS-II'24) — the SOTA client-side accelerator.
///  * [22] Aloha-HE (DATE'24) — FPGA client-side accelerator.
///  * [9] Trinity — SOTA server-side ASIC (Fig. 1 server bars).
///
/// Neither comparison chip supports bootstrappable parameters; the paper
/// scaled their reported latencies by the operation-count ratio and
/// normalized clocks to 600 MHz. The absolute scaled latencies are not
/// printed in the paper — only the resulting speedups (214x / 82x for
/// [34]; Fig. 1 gives the 69.4% / 30.6% client/server split) — so these
/// models are parameterized by those published ratios. The assumptions
/// are recorded here and in docs/EXPERIMENTS.md E1.

#include <string>

namespace abc::baseline {

struct PriorWorkPoint {
  std::string name;
  double encode_encrypt_ms = 0;
  double decode_decrypt_ms = 0;
  std::string basis;  // where the numbers come from
};

/// [34]: the paper reports ABC-FHE is 214x faster on encode+encrypt and
/// 82x on decode+decrypt than the SOTA client accelerator (normalized to
/// 600 MHz, op-count-scaled to N=2^16 bootstrappable parameters).
PriorWorkPoint sota_client_accelerator(double abc_enc_ms, double abc_dec_ms);

/// [22] Aloha-HE: the DATE'24 FPGA design; the paper groups it with [34]
/// in the "SOTA ASIC and FPGA implementations" comparison. We model it at
/// the same op-scaled order with the FPGA clock handicap (200 MHz class
/// fabric normalized to 600 MHz), landing slightly above [34] on
/// encode+encrypt.
PriorWorkPoint aloha_he(double abc_enc_ms, double abc_dec_ms);

/// [9] Trinity server-side time for one ResNet-20 inference under FHE,
/// calibrated from Fig. 1: with the [34] client, the client accounts for
/// 69.4% and the server 30.6% of end-to-end time.
double trinity_resnet20_server_ms(double client34_total_ms);

/// Server-side ResNet-20 time on the dual-Xeon CPU baseline (Fig. 1 top
/// bar, ~1e7 ms axis): expressed as a multiple of the Trinity time.
double cpu_resnet20_server_ms(double trinity_ms);

}  // namespace abc::baseline
