// perfbench: the measuring half of the repository benchmark (run.py is the
// other half: it builds this binary, turns the raw samples printed here into
// percentiles, medians and span self times, and prints the result line).
//
//   perfbench --workload <client_paper|served_churn>
//             --seed <n> --seconds <s> --trace <0|1> [--setup-only <0|1>]
//
// Every workload is a closed loop driven from this one process: a client
// sends its next request only after the previous answer arrived and was
// checked. The binary prints one JSON document on stdout:
//
//   setup_s        process start to the first timed request (incl. warm-up)
//   latency        [req_ms, upload_ms, download_ms, ok] per timed request,
//                  one request in flight
//   throughput     answers verified/failed, elapsed time and work steals
//                  with two requests in flight (served workloads)
//   keycache_timed key-cache hit/miss/eviction deltas over the timed phases
//   counts         exact per-request counts of a fixed count pass, taken
//                  twice; a difference between the two is an error
//   errors         failed guards (the run is then incorrect)
//   spans          (--trace 1) [tree, id, parent, name, start_ns, end_ns],
//                  recorded around calls into the library's public
//                  functions from this file; nothing inside src/ is timed
//
// Layer spans of a request nest under a "request" root. Replayed layer
// calls (PRNG fills, NTT, eager key switch, key regeneration, loopback
// server calls) are their own one-span trees.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckks/evaluator.hpp"
#include "ckks/keygen.hpp"
#include "ckks/noise.hpp"
#include "ckks/serialize.hpp"
#include "engine/client_session.hpp"
#include "server/server.hpp"
#include "server/session_registry.hpp"
#include "server/transport.hpp"
#include "simd/simd_caps.hpp"
#include "transform/op_counter.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using abc::i64;
using abc::u64;
using abc::u8;
using abc::ckks::Ciphertext;
using abc::ckks::CkksContext;
using abc::ckks::CkksParams;
using abc::ckks::Plaintext;
using abc::server::Op;
using Message = std::vector<std::complex<double>>;

i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ms_between(i64 a, i64 b) { return static_cast<double>(b - a) / 1e6; }

// ---- spans ------------------------------------------------------------------

struct SpanRecord {
  u64 tree = 0;
  std::size_t id = 0;      // 1-based index into Tracer::spans()
  std::size_t parent = 0;  // 0 = tree root
  const char* name = "";
  i64 start_ns = 0;
  i64 end_ns = 0;
};

/// In-memory span log, written out when the run ends. A span opened with
/// no span open starts a new tree.
class Tracer {
 public:
  std::size_t open(const char* name) {
    SpanRecord s;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.tree = stack_.empty() ? ++trees_ : spans_[stack_.back() - 1].tree;
    s.id = spans_.size() + 1;
    s.name = name;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(s.id);
    return s.id;
  }
  void close(std::size_t id) {
    spans_[id - 1].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> stack_;
  u64 trees_ = 0;
};

/// Scoped span; a null tracer makes it free (the untraced phases).
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_) id_ = tracer_->open(name);
  }
  ~Span() {
    if (tracer_) tracer_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t id_ = 0;
};

template <class F>
auto traced(Tracer* tracer, const char* name, F&& f) {
  Span span(tracer, name);
  return f();
}

// ---- JSON output ------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

using Counts = std::map<std::string, double>;

std::string json_object(const Counts& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ",";
    out += "\"" + k + "\":" + num(v);
  }
  return out + "}";
}

// ---- shared request pieces --------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  bool setup_only = false;  // exit after set-up: one more set-up sample
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      have_seconds = true;
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--setup-only") {
      a.setup_only = val == "1";
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds || a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--setup-only <0|1>]");
  }
  return a;
}

/// One request's message: slot values in the unit disk, drawn from the
/// workload seed and the request index only.
Message make_message(u64 seed, u64 index, std::size_t slots) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + index);
  std::uniform_real_distribution<double> radius(0.0, 1.0);
  std::uniform_real_distribution<double> angle(0.0, 6.283185307179586);
  Message m(slots);
  for (auto& z : m) z = std::polar(std::sqrt(radius(rng)), angle(rng));
  return m;
}

/// The bound ClientSession::verify_download applies by default: the fresh
/// public-key noise floor plus one key switch, at the ciphertext's scale.
double single_hop_bound(const CkksParams& p, std::size_t limbs, double scale) {
  using namespace abc::ckks;
  return slot_error_bound(fresh_noise_bound(p, EncryptMode::kPublicKey) +
                              keyswitch_noise_bound(p, limbs),
                          scale);
}

/// Bound for a squared fresh ciphertext (scale^2, no rescale): the product
/// of two values with fresh error e and |m| <= 1 errs by 2e + e^2, plus one
/// relinearization at the product's scale.
double square_bound(const CkksParams& p, std::size_t limbs) {
  using namespace abc::ckks;
  const double e = slot_error_bound(
      fresh_noise_bound(p, EncryptMode::kPublicKey), p.scale());
  return 2.0 * e + e * e +
         slot_error_bound(keyswitch_noise_bound(p, limbs),
                          p.scale() * p.scale());
}

bool slots_within(const Message& got, const Message& want, double bound) {
  if (got.size() < want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <= bound)) return false;
  }
  return true;
}

/// Client half shared by every workload: encode + encrypt + serialize up,
/// parse + decrypt + decode down, each call its own span.
struct ClientLeg {
  std::shared_ptr<const CkksContext> ctx;
  abc::engine::ClientSession& session;
  const abc::ckks::CkksEncoder& encoder;
  int bits_per_coeff;

  std::vector<u8> upload(const Message& m, std::size_t limbs,
                         Tracer* t) const {
    Span span(t, "client.upload");
    const std::vector<Plaintext> pts = traced(t, "ckks.encode", [&] {
      return std::vector<Plaintext>{encoder.encode(m, limbs)};
    });
    const std::vector<Ciphertext> cts = traced(t, "ckks.encrypt", [&] {
      return session.encrypt_engine().encrypt_plaintexts(pts);
    });
    return traced(t, "ckks.serialize", [&] {
      return abc::ckks::serialize_ciphertext_batch(cts, bits_per_coeff);
    });
  }

  bool download(const std::vector<u8>& envelope, const Message& expected,
                double bound, Tracer* t) const {
    Span span(t, "client.download");
    const std::vector<Ciphertext> cts = traced(t, "ckks.deserialize", [&] {
      return abc::ckks::deserialize_ciphertext_batch(ctx, envelope);
    });
    if (cts.size() != 1) return false;
    const std::vector<Plaintext> pts = traced(t, "ckks.decrypt", [&] {
      return session.decrypt_engine().decrypt_batch(cts);
    });
    const Message got =
        traced(t, "ckks.decode", [&] { return encoder.decode(pts[0]); });
    return traced(t, "client.verify",
                  [&] { return slots_within(got, expected, bound); });
  }
};

struct RequestSample {
  double req_ms = 0;
  double upload_ms = 0;
  double download_ms = 0;
  bool ok = false;
};

/// Op-count delta of one callable on this thread (the xf counters are
/// thread-local, so only work done on the calling thread shows).
template <class F>
abc::xf::OpCounts count_ops(F&& f) {
  const abc::xf::OpCounterScope scope;
  f();
  return scope.delta();
}

void add_ops(Counts& c, const abc::xf::OpCounts& ops) {
  c["transform.ntt_ops"] += static_cast<double>(ops.ntt_total());
  c["transform.fft_ops"] += static_cast<double>(ops.fft_total());
  c["simd.dyadic_ops"] += static_cast<double>(ops.poly_total());
}

/// Replays of single layer calls at a request's size, each its own tree.
void replay_layers(const CkksContext& ctx, std::size_t limbs, u64 seed,
                   Tracer* t) {
  using abc::poly::Domain;
  abc::poly::RnsPoly a = ctx.make_poly(limbs, Domain::kEval);
  {
    const u64 stream = ctx.reserve_stream_ids(1);
    Span span(t, "prng.uniform");
    abc::ckks::fill_uniform_eval(ctx, a, abc::ckks::PrngDomain::kSymmetricA,
                                 stream);
  }
  abc::poly::RnsPoly e = ctx.make_poly(limbs, Domain::kCoeff);
  {
    const u64 stream = ctx.reserve_stream_ids(1);
    Span span(t, "prng.gaussian");
    abc::ckks::fill_gaussian_coeff(ctx, e,
                                   abc::ckks::PrngDomain::kSymmetricError,
                                   stream);
  }
  // Forward NTT of a coefficient-form polynomial with full-width residues.
  abc::poly::RnsPoly c = ctx.make_poly(limbs, Domain::kCoeff);
  std::mt19937_64 rng(seed);
  for (std::size_t l = 0; l < limbs; ++l) {
    const u64 q = ctx.primes()[l];
    for (u64& x : c.limb(l)) x = rng() % q;
  }
  Span span(t, "transform.ntt_fwd");
  c.to_eval();
}

// ---- workloads --------------------------------------------------------------

/// Output of one run, filled by the workloads and printed by main().
struct Report {
  i64 start_ns = now_ns();  // constructed first thing in main()
  double setup_s = 0;
  std::vector<RequestSample> latency;         // untraced, one in flight
  std::vector<RequestSample> traced_latency;  // traced, one in flight
  double latency_elapsed_s = 0;
  bool has_throughput = false;
  u64 throughput_ok = 0;
  u64 throughput_failed = 0;
  double throughput_elapsed_s = 0;
  u64 throughput_steals = 0;
  Counts keycache_timed;  // deltas over every timed phase
  Counts counts;
  std::string params;
  std::vector<std::string> errors;
};

/// Runs @p request until @p seconds have passed and @p out holds at least
/// @p min_samples requests (p90 needs 100 samples for ten beyond it).
template <class F>
double closed_loop(double seconds, std::size_t min_samples,
                   std::vector<RequestSample>& out, F&& request) {
  const i64 start = now_ns();
  const i64 deadline = start + static_cast<i64>(seconds * 1e9);
  // Never run past a hard cap, whatever the sample count.
  const i64 cap = start + static_cast<i64>(std::max(seconds, 100.0) * 1e9);
  while ((now_ns() < deadline || out.size() < min_samples) && now_ns() < cap) {
    const i64 t0 = now_ns();
    try {
      out.push_back(request());
    } catch (const std::exception& e) {  // a failed request is a miss
      RequestSample miss;
      miss.req_ms = ms_between(t0, now_ns());
      out.push_back(miss);
      std::fprintf(stderr, "perfbench: request failed: %s\n", e.what());
    }
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

constexpr std::size_t kMinSamples = 100;

/// Repeats @p replay until @p seconds have passed and it ran @p min_reps
/// times.
template <class F>
void repeat_for(double seconds, int min_reps, F&& replay) {
  const i64 deadline = now_ns() + static_cast<i64>(seconds * 1e9);
  for (int n = 0; n < min_reps || now_ns() < deadline; ++n) replay();
}

/// The paper's own request: one message encrypted at N=2^16 with 24 fresh
/// limbs, ingested by the server (seed expansion of c1, level drop to two
/// limbs, re-serialization) and decrypted from the two returned limbs.
class ClientPaper {
 public:
  static constexpr std::size_t kFreshLimbs = 24;
  static constexpr std::size_t kReturnedLimbs = 2;

  explicit ClientPaper(u64 seed)
      : seed_(seed),
        params_(CkksParams::bootstrappable()),
        client_ctx_(CkksContext::create(params_)),
        server_ctx_(CkksContext::create(params_)),
        session_(client_ctx_),
        encoder_(client_ctx_),
        evaluator_(server_ctx_),
        leg_{client_ctx_, session_, encoder_,
             session_.config().bits_per_coeff},
        bound_(single_hop_bound(params_, kReturnedLimbs, params_.scale())) {
    ABC_CHECK_ARG(params_.num_limbs == kFreshLimbs,
                  "bootstrappable() no longer has 24 limbs");
    for (int i = 0; i < 2; ++i) {  // warm-up: allocators, twiddles, caches
      if (!request(nullptr).ok) {
        throw std::runtime_error("client_paper warm-up failed to verify");
      }
    }
  }

  ClientPaper(const ClientPaper&) = delete;  // leg_ refers to members
  ClientPaper& operator=(const ClientPaper&) = delete;

  const CkksParams& params() const { return params_; }

  RequestSample request(Tracer* t) {
    const Message m = make_message(seed_, next_++, params_.slots());
    RequestSample s;
    Span root(t, "request");
    const i64 t0 = now_ns();
    const std::vector<u8> up = leg_.upload(m, kFreshLimbs, t);
    const i64 t1 = now_ns();
    const std::vector<u8> down = ingest(up, t);
    const i64 t2 = now_ns();
    s.ok = leg_.download(down, m, bound_, t);
    const i64 t3 = now_ns();
    s.req_ms = ms_between(t0, t3);
    s.upload_ms = ms_between(t0, t1);
    s.download_ms = ms_between(t2, t3);
    return s;
  }

  /// Exact counts of one request, every layer on this thread.
  Counts count_pass() {
    Counts c;
    const Message m = make_message(seed_, 0, params_.slots());
    std::vector<u8> up;
    std::vector<u8> down;
    bool ok = false;
    add_ops(c, count_ops([&] {
              up = leg_.upload(m, kFreshLimbs, nullptr);
              down = ingest(up, nullptr);
              ok = leg_.download(down, m, bound_, nullptr);
            }));
    if (!ok) throw std::runtime_error("client_paper count pass failed");
    c["ckks.upload_bytes"] = static_cast<double>(up.size());
    c["ckks.download_bytes"] = static_cast<double>(down.size());
    return c;
  }

  void replay(Tracer* t) { replay_layers(*client_ctx_, kFreshLimbs, seed_, t); }

 private:
  std::vector<u8> ingest(const std::vector<u8>& up, Tracer* t) const {
    Span span(t, "server.ingest");
    std::vector<Ciphertext> cts = traced(t, "ckks.deserialize", [&] {
      return abc::ckks::deserialize_ciphertext_batch(server_ctx_, up);
    });
    {
      Span ms(t, "ckks.mod_switch");
      for (Ciphertext& ct : cts) {
        evaluator_.mod_switch_to_inplace(ct, kReturnedLimbs);
      }
    }
    return traced(t, "ckks.serialize", [&] {
      return abc::ckks::serialize_ciphertext_batch(
          cts, session_.config().bits_per_coeff);
    });
  }

  u64 seed_;
  CkksParams params_;
  std::shared_ptr<const CkksContext> client_ctx_;
  std::shared_ptr<const CkksContext> server_ctx_;
  abc::engine::ClientSession session_;
  abc::ckks::CkksEncoder encoder_;
  abc::ckks::Evaluator evaluator_;
  ClientLeg leg_;
  double bound_;
  u64 next_ = 0;  // request index, the message's seed
};

/// Eight tenants served by a two-worker Server over a Unix socket.
/// Request i goes to tenant i % 8 and is a rotation by one slot for
/// (i / 8) even, a square otherwise, so one 16-request cycle touches each
/// of the 16 key-switch keys exactly once. Every phase (warm-up, timed,
/// replayed, counted) continues the cycle where the last one stopped, so a
/// key was always last used 16 lookups earlier; with the key cache sized
/// for four keys, every lookup misses and regenerates its key.
class Served {
 public:
  static constexpr std::size_t kTenants = 8;
  static constexpr std::size_t kCycle = 2 * kTenants;
  static constexpr int kStep = 1;
  /// Rotation answers carry one key switch at the input scale. Their
  /// worst-slot error here reaches 1.0e-4, about 7x the library's analytic
  /// single-hop bound (1.45e-5), so rotations are held to a 10-bit
  /// precision floor instead; a wrong shift errs by ~1.
  static constexpr double kRotateBound = 1.0 / 1024;

  Served(u64 seed, const std::string& socket_path)
      : seed_(seed),
        params_(CkksParams::sweep_point(13, 6)),
        limbs_(params_.num_limbs - 1),  // one limb above the special prime
        client_ctx_(CkksContext::create(params_)),
        encoder_(client_ctx_) {
    for (std::size_t t = 0; t < kTenants; ++t) {
      sessions_.push_back(std::make_unique<abc::engine::ClientSession>(
          client_ctx_, abc::engine::SessionConfig{{kStep}}));
      legs_.push_back(ClientLeg{client_ctx_, *sessions_.back(), encoder_,
                                sessions_.back()->config().bits_per_coeff});
    }
    const abc::engine::KeyBundle& kb0 = sessions_[0]->key_bundle();
    record0_ = abc::server::parse_tenant_bundle(
        client_ctx_, {kb0.public_key, kb0.relin_key, kb0.galois_keys});
    // Bytes one expanded key occupies in the cache (stored digits only).
    const std::size_t key_bytes =
        2 * static_cast<std::size_t>(record0_.rlk.stored_digits) *
        record0_.rlk.limbs * client_ctx_->n() * sizeof(u64);

    abc::server::ServerConfig cfg;
    cfg.workers = 2;
    cfg.param_sets = {params_};
    cfg.key_cache_bytes = 4 * key_bytes;
    server_ = std::make_unique<abc::server::Server>(cfg);
    uds_ = std::make_unique<abc::server::UdsServer>(*server_, socket_path);
    for (auto& ch : channels_) {
      ch = std::make_unique<abc::server::UdsChannel>(socket_path);
    }
    for (auto& s : sessions_) {
      tenants_.push_back(abc::server::register_over_channel(*channels_[0], 0,
                                                            s->key_bundle()));
    }
    // Warm-up cycle: builds the throughput phase's requests and their
    // checked reference answers, and brings the cache to its steady state.
    for (; next_ < kCycle; ++next_) {
      const std::size_t pos = next_;
      const Message m = make_message(seed_, next_, params_.slots());
      abc::ckks::RequestFrame frame = make_frame(pos, m, nullptr);
      const abc::ckks::ResponseFrame resp = channels_[0]->call(frame);
      if (resp.status != static_cast<u8>(abc::server::Status::kOk) ||
          !legs_[pos % kTenants].download(resp.payload, expected(pos, m),
                                          bound(pos), nullptr)) {
        throw std::runtime_error("served warm-up answer failed to verify");
      }
      frames_.push_back(std::move(frame));
      answers_.push_back(resp.payload);
    }
  }

  Served(const Served&) = delete;  // legs_ refer to members
  Served& operator=(const Served&) = delete;

  const CkksParams& params() const { return params_; }

  abc::server::KeyCache::Stats cache_stats() const {
    return server_->key_cache_stats();
  }

  /// One request over the socket, one in flight.
  RequestSample request(Tracer* t) {
    const std::size_t pos = next_ % kCycle;
    const Message m = make_message(seed_, next_++, params_.slots());
    RequestSample s;
    Span root(t, "request");
    const i64 t0 = now_ns();
    const abc::ckks::RequestFrame frame = make_frame(pos, m, t);
    const i64 t1 = now_ns();
    const abc::ckks::ResponseFrame resp = traced(
        t, "transport.uds_call", [&] { return channels_[0]->call(frame); });
    const i64 t2 = now_ns();
    s.ok = resp.status == static_cast<u8>(abc::server::Status::kOk) &&
           legs_[pos % kTenants].download(resp.payload, expected(pos, m),
                                          bound(pos), t);
    const i64 t3 = now_ns();
    s.req_ms = ms_between(t0, t3);
    s.upload_ms = ms_between(t0, t1);
    s.download_ms = ms_between(t2, t3);
    return s;
  }

  /// Two closed-loop clients, each on its own connection, resending the
  /// prebuilt cycle; every answer must equal the checked reference bytes
  /// (responses depend only on the request and the tenant's keys). Adds to
  /// the report's totals, running past @p seconds until they reach
  /// @p min_total answers.
  void throughput(double seconds, u64 min_total, Report& r) {
    const u64 steals0 = server_->stats().steals;
    const u64 before = r.throughput_ok + r.throughput_failed;
    std::atomic<u64> next{next_};
    std::atomic<u64> ok{0};
    std::atomic<u64> failed{0};
    std::atomic<bool> min_reached{before >= min_total};
    const i64 start = now_ns();
    const i64 deadline = start + static_cast<i64>(seconds * 1e9);
    const i64 cap = start + static_cast<i64>(std::max(seconds, 100.0) * 1e9);
    std::atomic<i64> last_end{start};
    auto client = [&](abc::server::UdsChannel& ch) {
      for (;;) {
        const i64 now = now_ns();
        if (now >= cap || (now >= deadline && min_reached.load())) break;
        const std::size_t pos = next.fetch_add(1) % kCycle;
        bool good = false;
        try {
          const abc::ckks::ResponseFrame resp = ch.call(frames_[pos]);
          good = resp.status == static_cast<u8>(abc::server::Status::kOk) &&
                 resp.payload == answers_[pos];
        } catch (const std::exception&) {
          good = false;
        }
        (good ? ok : failed).fetch_add(1);
        if (before + ok.load() + failed.load() >= min_total) {
          min_reached = true;
        }
        i64 end = now_ns();
        i64 seen = last_end.load();
        while (end > seen && !last_end.compare_exchange_weak(seen, end)) {
        }
      }
    };
    std::thread second(client, std::ref(*channels_[1]));
    client(*channels_[0]);
    second.join();
    next_ = next.load();
    r.has_throughput = true;
    r.throughput_ok += ok.load();
    r.throughput_failed += failed.load();
    r.throughput_elapsed_s +=
        static_cast<double>(last_end.load() - start) / 1e9;
    r.throughput_steals += server_->stats().steals - steals0;
  }

  /// One cycle with the server half run by process_serial on this thread,
  /// so op counts cover client and server; counts are per request.
  Counts count_pass() {
    Counts c;
    const auto before = cache_stats();
    for (std::size_t k = 0; k < kCycle; ++k, ++next_) {
      const std::size_t pos = next_ % kCycle;
      const Message m = make_message(seed_, next_, params_.slots());
      abc::ckks::RequestFrame frame;
      abc::ckks::ResponseFrame resp;
      bool ok = false;
      add_ops(c, count_ops([&] {
                frame = make_frame(pos, m, nullptr);
                resp = server_->process_serial(frame);
                ok = resp.status == static_cast<u8>(abc::server::Status::kOk) &&
                     legs_[pos % kTenants].download(resp.payload,
                                                    expected(pos, m),
                                                    bound(pos), nullptr);
              }));
      if (!ok) throw std::runtime_error("served count pass failed");
      c["ckks.upload_bytes"] += static_cast<double>(frame.payload.size());
      c["ckks.download_bytes"] += static_cast<double>(resp.payload.size());
    }
    const auto after = cache_stats();
    c["keycache.hits"] = static_cast<double>(after.hits - before.hits);
    c["keycache.misses"] = static_cast<double>(after.misses - before.misses);
    c["keycache.evictions"] =
        static_cast<double>(after.evictions - before.evictions);
    for (auto& [k, v] : c) v /= static_cast<double>(kCycle);
    return c;
  }

  /// Server-side replays of one cycle (loopback call, then process_serial,
  /// each pass continuing the cycle so every lookup keeps the workload's
  /// cache state), then the key switch on eager keys, one key regeneration
  /// and the PRNG/NTT layer calls.
  void replay(Tracer* t) {
    abc::server::LoopbackChannel loopback(*server_);
    for (std::size_t k = 0; k < kCycle; ++k) {
      Span span(t, "server.call");
      (void)loopback.call(frames_[next_++ % kCycle]);
    }
    for (std::size_t k = 0; k < kCycle; ++k) {
      Span span(t, "server.process");
      (void)server_->process_serial(frames_[next_++ % kCycle]);
    }
    if (!eager_) {
      abc::ckks::KeyGenerator keygen(client_ctx_);
      const std::vector<int> steps{kStep};
      eager_ = std::make_unique<EagerKeys>(EagerKeys{
          keygen.relin_key(sessions_[0]->secret_key()),
          keygen.galois_keys(sessions_[0]->secret_key(), steps)});
    }
    const abc::ckks::Evaluator eval(client_ctx_);
    const Ciphertext ct =
        sessions_[0]->encrypt(std::vector<Message>{make_message(
                                  seed_, 0, params_.slots())},
                              limbs_)
            .front();
    {
      Span span(t, "ckks.keyswitch");
      (void)eval.rotate(ct, kStep, eager_->gks);
    }
    Ciphertext product = eval.mul(ct, ct);
    {
      Span span(t, "ckks.relin");
      eval.relinearize_inplace(product, eager_->rlk);
    }
    {
      Span span(t, "server.key_regen");
      (void)abc::ckks::expand_key_switch_key(client_ctx_, record0_.rlk);
    }
    replay_layers(*client_ctx_, limbs_, seed_, t);
  }

 private:
  struct EagerKeys {
    abc::ckks::RelinKey rlk;
    abc::ckks::GaloisKeys gks;
  };

  static bool is_rotate(std::size_t pos) { return (pos / kTenants) % 2 == 0; }

  Message expected(std::size_t pos, const Message& m) const {
    Message want(m.size());
    for (std::size_t j = 0; j < m.size(); ++j) {
      want[j] = is_rotate(pos) ? m[(j + kStep) % m.size()] : m[j] * m[j];
    }
    return want;
  }

  double bound(std::size_t pos) const {
    return is_rotate(pos) ? kRotateBound : square_bound(params_, limbs_);
  }

  abc::ckks::RequestFrame make_frame(std::size_t pos, const Message& m,
                                     Tracer* t) {
    abc::ckks::RequestFrame frame;
    frame.tenant = tenants_[pos % kTenants];
    frame.request_id = ++request_id_;
    frame.op = static_cast<u8>(is_rotate(pos) ? Op::kRotate : Op::kSquare);
    frame.op_arg = is_rotate(pos) ? kStep : 0;
    frame.payload = legs_[pos % kTenants].upload(m, limbs_, t);
    return frame;
  }

  u64 seed_;
  CkksParams params_;
  std::size_t limbs_;
  std::shared_ptr<const CkksContext> client_ctx_;
  abc::ckks::CkksEncoder encoder_;
  std::vector<std::unique_ptr<abc::engine::ClientSession>> sessions_;
  std::vector<ClientLeg> legs_;
  abc::server::TenantSession record0_;  // tenant 0's compressed keys
  // Destroyed bottom-up: the channels close before the socket server
  // stops, and the socket server before the daemon.
  std::unique_ptr<abc::server::Server> server_;
  std::unique_ptr<abc::server::UdsServer> uds_;
  std::unique_ptr<abc::server::UdsChannel> channels_[2];
  std::vector<u64> tenants_;
  std::vector<abc::ckks::RequestFrame> frames_;
  std::vector<std::vector<u8>> answers_;
  std::unique_ptr<EagerKeys> eager_;
  u64 request_id_ = 0;
  u64 next_ = 0;  // request index: cycle position and the message's seed
};

/// CPUs this process may run on (what `nproc` prints).
int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return ::sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
}

std::string describe(const CkksParams& p) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "log_n=%d limbs=%zu prime_bits=%d "
                "scale_bits=%d", p.log_n, p.num_limbs, p.prime_bits,
                p.scale_bits);
  return buf;
}

/// Builds the workload and records the set-up time: process start to the
/// first timed request, warm-up included. run.py takes the median over
/// fresh processes (--setup-only), so no set-up runs on a heap an earlier
/// one left behind and the peak RSS is one set-up's.
template <class W, class Make>
std::unique_ptr<W> set_up(Report& r, Make&& make) {
  std::unique_ptr<W> w = make();
  r.setup_s = static_cast<double>(now_ns() - r.start_ns) / 1e9;
  return w;
}

void check_counts_repeat(Report& r, const Counts& again) {
  if (again != r.counts) {
    r.errors.push_back("count pass did not repeat exactly");
  }
}

void run_client_paper(const Args& a, Tracer& tracer, Report& r) {
  auto w = set_up<ClientPaper>(
      r, [&] { return std::make_unique<ClientPaper>(a.seed); });
  r.params = "bootstrappable: " + describe(w->params());
  if (a.setup_only) return;
  auto untraced = [&] { return w->request(nullptr); };
  if (!a.trace) {
    r.latency_elapsed_s =
        closed_loop(a.seconds, kMinSamples, r.latency, untraced);
  } else {
    // Untraced (the overhead baseline), traced, then layer replays.
    closed_loop(a.seconds / 2, 20, r.latency, untraced);
    closed_loop(a.seconds / 3, 20, r.traced_latency,
                [&] { return w->request(&tracer); });
    repeat_for(a.seconds / 6, 20, [&] { w->replay(&tracer); });
  }
  r.counts = w->count_pass();
  check_counts_repeat(r, w->count_pass());
}

void run_served_churn(const Args& a, Tracer& tracer, Report& r) {
  const std::string sock = ".bench_build/perfbench-" +
                           std::to_string(::getpid()) + ".sock";
  auto w = set_up<Served>(
      r, [&] { return std::make_unique<Served>(a.seed, sock); });
  r.params = "sweep_point(13,6): " + describe(w->params());
  if (a.setup_only) return;
  const auto before = w->cache_stats();
  auto untraced = [&] { return w->request(nullptr); };
  if (!a.trace) {
    // Latency and throughput take turns, so each samples the whole run
    // rather than one half of it (load on the host comes and goes).
    constexpr int kRounds = 4;
    for (int k = 1; k <= kRounds; ++k) {
      const bool last = k == kRounds;
      r.latency_elapsed_s +=
          closed_loop(0.6 * a.seconds / kRounds, last ? kMinSamples : 0,
                      r.latency, untraced);
      w->throughput(0.4 * a.seconds / kRounds, last ? kMinSamples : 0, r);
    }
  } else {
    closed_loop(a.seconds / 4, 20, r.latency, untraced);
    closed_loop(a.seconds / 4, 20, r.traced_latency,
                [&] { return w->request(&tracer); });
    repeat_for(a.seconds / 4, 5, [&] { w->replay(&tracer); });
    w->throughput(a.seconds / 4, 20, r);
  }
  const auto after = w->cache_stats();
  r.keycache_timed["hits"] = static_cast<double>(after.hits - before.hits);
  r.keycache_timed["misses"] =
      static_cast<double>(after.misses - before.misses);
  r.keycache_timed["evictions"] =
      static_cast<double>(after.evictions - before.evictions);
  if (after.hits != before.hits) {
    r.errors.push_back("served_churn: key-cache hits in a timed phase");
  }
  r.counts = w->count_pass();
  check_counts_repeat(r, w->count_pass());
}

void print_report(const Args& a, const Report& r, const Tracer& tracer) {
  std::string out = "{";
  out += "\"workload\":\"" + a.workload + "\",";
  out += "\"seed\":" + std::to_string(a.seed) + ",";
  out += "\"trace\":" + std::string(a.trace ? "true" : "false") + ",";
  out += "\"env\":{\"kernel_arch\":\"" +
         std::string(abc::simd::kernel_arch_name(
             abc::simd::active_kernel_arch())) +
         "\",\"nproc\":" + std::to_string(usable_cpus()) +
         ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\",\"params\":\"" +
         json_escape(r.params) + "\"},";
  auto samples = [](const std::vector<RequestSample>& v) {
    std::string s = "[";
    for (const RequestSample& x : v) {
      if (s.size() > 1) s += ",";
      s.append("[").append(num(x.req_ms)).append(",");
      s.append(num(x.upload_ms)).append(",").append(num(x.download_ms));
      s.append(x.ok ? ",1]" : ",0]");
    }
    return s + "]";
  };
  out += "\"setup_s\":" + num(r.setup_s) + ",";
  out += "\"latency\":" + samples(r.latency) + ",";
  out += "\"latency_elapsed_s\":" + num(r.latency_elapsed_s) + ",";
  out += "\"traced_latency\":" + samples(r.traced_latency) + ",";
  if (r.has_throughput) {
    out += "\"throughput\":{\"ok\":" + std::to_string(r.throughput_ok) +
           ",\"failed\":" + std::to_string(r.throughput_failed) +
           ",\"elapsed_s\":" + num(r.throughput_elapsed_s) +
           ",\"steals\":" + std::to_string(r.throughput_steals) + "},";
  }
  out += "\"keycache_timed\":" + json_object(r.keycache_timed) + ",";
  out += "\"counts\":" + json_object(r.counts) + ",";
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  out += "\"peak_rss_kb\":" + std::to_string(ru.ru_maxrss) + ",";
  std::string errors = "[";
  for (const std::string& e : r.errors) {
    if (errors.size() > 1) errors += ",";
    errors += "\"" + json_escape(e) + "\"";
  }
  out += "\"errors\":" + errors + "],";
  std::string spans = "[";
  for (const SpanRecord& s : tracer.spans()) {
    if (spans.size() > 1) spans += ",";
    spans += "[" + std::to_string(s.tree) + "," + std::to_string(s.id) + "," +
             std::to_string(s.parent) + ",\"" + s.name + "\"," +
             std::to_string(s.start_ns) + "," + std::to_string(s.end_ns) + "]";
  }
  out += "\"spans\":" + spans + "]}";
  std::fwrite(out.data(), 1, out.size(), stdout);
  std::fputc('\n', stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Report r;
  try {
    const Args a = parse_args(argc, argv);
    Tracer tracer;
    if (a.workload == "client_paper") {
      run_client_paper(a, tracer, r);
    } else if (a.workload == "served_churn") {
      run_served_churn(a, tracer, r);
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    print_report(a, r, tracer);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
