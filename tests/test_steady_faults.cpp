// Steady-state page-fault guard for the paper-point round trip. perfbench's
// client_paper request (encode, encrypt, serialize; server deserialize,
// mod_switch_to, serialize; client deserialize, decrypt, decode) reuses the
// same few dozen MB of heap every time, so once warm it should touch no new
// pages. That rests on glibc's allocator: its dynamic mmap threshold rises
// past the 12.6 MB polynomial blocks only after such a block is freed, and
// it then holds off trimming the heap. If the heap were trimmed after every
// request, each upload would re-fault ~11,000 pages and no timing test
// would say why. This test counts the minor faults directly.
//
// Compiled only against glibc's allocator: the sanitizer runtimes bring
// their own allocators, whose page reuse says nothing about glibc's.

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ABC_GLIBC_HEAP 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ABC_GLIBC_HEAP 0
#endif
#endif
#if !defined(ABC_GLIBC_HEAP)
#if defined(__GLIBC__)
#define ABC_GLIBC_HEAP 1
#else
#define ABC_GLIBC_HEAP 0
#endif
#endif

#if ABC_GLIBC_HEAP

#include <sys/resource.h>

#include <cmath>
#include <complex>
#include <random>
#include <vector>

#include "ckks/encoder.hpp"
#include "ckks/evaluator.hpp"
#include "ckks/noise.hpp"
#include "ckks/serialize.hpp"
#include "engine/client_session.hpp"

namespace abc::ckks {
namespace {

using Message = std::vector<std::complex<double>>;

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

Message make_message(u64 index, std::size_t slots) {
  std::mt19937_64 rng(0x5eed + index);
  std::uniform_real_distribution<double> radius(0.0, 1.0);
  std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
  Message m(slots);
  for (auto& z : m) z = std::polar(std::sqrt(radius(rng)), angle(rng));
  return m;
}

/// The client_paper request: a client and a server context at
/// bootstrappable(), 24 limbs up and 2 back, built in the same order and
/// making the same calls as perfbench, so the heap sees the same history.
class PaperRoundTrip {
 public:
  static constexpr std::size_t kFreshLimbs = 24;
  static constexpr std::size_t kReturnedLimbs = 2;

  PaperRoundTrip()
      : params_(CkksParams::bootstrappable()),
        client_ctx_(CkksContext::create(params_)),
        server_ctx_(CkksContext::create(params_)),
        session_(client_ctx_),
        encoder_(client_ctx_),
        evaluator_(server_ctx_),
        bound_(slot_error_bound(
            fresh_noise_bound(params_, EncryptMode::kPublicKey) +
                keyswitch_noise_bound(params_, kReturnedLimbs),
            params_.scale())) {}

  /// One round trip; true when every slot decodes within the bound. Each
  /// leg's temporaries die with it, as in perfbench.
  bool request(u64 index) {
    const Message m = make_message(index, params_.slots());
    const std::vector<u8> up = upload(m);
    const std::vector<u8> down = ingest(up);
    return download(down, m);
  }

 private:
  int bits() const { return session_.config().bits_per_coeff; }

  std::vector<u8> upload(const Message& m) {
    // The braced list copies the plaintext, as perfbench does.
    const std::vector<Plaintext> pts{encoder_.encode(m, kFreshLimbs)};
    const std::vector<Ciphertext> cts =
        session_.encrypt_engine().encrypt_plaintexts(pts);
    return serialize_ciphertext_batch(cts, bits());
  }

  std::vector<u8> ingest(const std::vector<u8>& up) const {
    std::vector<Ciphertext> cts = deserialize_ciphertext_batch(server_ctx_, up);
    for (Ciphertext& ct : cts) {
      evaluator_.mod_switch_to_inplace(ct, kReturnedLimbs);
    }
    return serialize_ciphertext_batch(cts, bits());
  }

  bool download(const std::vector<u8>& down, const Message& want) {
    const std::vector<Ciphertext> cts =
        deserialize_ciphertext_batch(client_ctx_, down);
    if (cts.size() != 1) return false;
    const std::vector<Plaintext> pts =
        session_.decrypt_engine().decrypt_batch(cts);
    const Message got = encoder_.decode(pts[0]);
    for (std::size_t i = 0; i < want.size(); ++i) {
      if (!(std::abs(got[i] - want[i]) <= bound_)) return false;
    }
    return true;
  }

  CkksParams params_;
  std::shared_ptr<const CkksContext> client_ctx_;
  std::shared_ptr<const CkksContext> server_ctx_;
  engine::ClientSession session_;
  CkksEncoder encoder_;
  Evaluator evaluator_;
  double bound_;
};

TEST(SteadyStateFaults, PaperPointRoundTripReusesItsPages) {
  // A trimmed heap re-faults ~11,000 pages per request; a warm one touches
  // none. 64 pages (256 KiB) per request leaves room for a stray stack or
  // metadata page without letting a re-faulting upload through.
  constexpr long kMaxFaultsPerRequest = 64;
  constexpr int kRequests = 4;
  PaperRoundTrip trip;
  u64 index = 0;
  for (int i = 0; i < 2; ++i) ASSERT_TRUE(trip.request(index++));  // warm-up
  const long before = minor_faults();
  for (int i = 0; i < kRequests; ++i) ASSERT_TRUE(trip.request(index++));
  const long faults = minor_faults() - before;
  EXPECT_LE(faults, kMaxFaultsPerRequest * kRequests)
      << faults << " minor faults over " << kRequests << " steady requests";
}

}  // namespace
}  // namespace abc::ckks

#endif  // ABC_GLIBC_HEAP
