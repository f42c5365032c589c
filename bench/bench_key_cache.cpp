// Key-cache bench: the memory-vs-throughput story of on-demand rotation-
// key regeneration. Three headline numbers, all recorded to JSON:
//
//   * resident key bytes at N tenants — seed-compressed registry records
//     vs the old eager scheme (every key-switch key expanded per tenant),
//     plus the bounded shared cache slice that replaces the difference;
//   * warm-cache rotation throughput vs eager expanded keys (the within-
//     10% acceptance gate: a cache hit is a pointer chase + pin);
//   * a capacity sweep at N tenants from thrash (1 byte) to the full
//     working set: rotations/s, hit/miss/eviction counts and resident
//     bytes per configuration.
//
//   bench_key_cache [--quick] [--reps N] [--json out.json]

#include <complex>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "ckks/evaluator.hpp"
#include "engine/batch_evaluator.hpp"
#include "engine/client_session.hpp"
#include "server/key_cache.hpp"

namespace {

using abc::u64;
using abc::u8;
using abc::server::KeyCache;
using abc::server::TenantKeySource;

std::vector<std::vector<std::complex<double>>> random_batch(
    std::size_t batch, std::size_t slots, u64 seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<std::vector<std::complex<double>>> msgs(batch);
  for (auto& m : msgs) {
    m.resize(slots);
    for (auto& z : m) z = {dist(rng), dist(rng)};
  }
  return msgs;
}

}  // namespace

int main(int argc, char** argv) {
  const abc::bench::BenchArgs args = abc::bench::BenchArgs::parse(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.quick ? 1 : 3);
  const std::size_t tenants = args.quick ? 8 : 64;
  constexpr int kRotations = 8;  // registered steps per tenant: 1..8
  const std::size_t warm_iters = args.quick ? 8 : 32;

  abc::bench::JsonReporter reporter("bench_key_cache");
  const abc::ckks::CkksParams params = abc::ckks::CkksParams::test_small(10, 3);

  // One client's key bundle, registered under every tenant id: cache keys
  // are (tenant, element), so tenants never share cache entries and the
  // byte accounting matches N independent clients exactly.
  auto client_ctx = abc::ckks::CkksContext::create(params);
  std::vector<int> steps(kRotations);
  for (int i = 0; i < kRotations; ++i) steps[static_cast<std::size_t>(i)] = i + 1;
  abc::engine::ClientSession client(client_ctx,
                                    abc::engine::SessionConfig{steps});
  const abc::engine::KeyBundle& kb = client.key_bundle();
  const abc::ckks::KeyBundleFrames frames{kb.public_key, kb.relin_key,
                                          kb.galois_keys};

  auto ctx = abc::ckks::CkksContext::create(params);
  std::vector<abc::server::TenantSession> sessions;
  sessions.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(abc::server::parse_tenant_bundle(ctx, frames));
    sessions.back().id = t + 1;
  }
  const abc::server::TenantSession& s0 = sessions.front();

  // -- resident key memory ----------------------------------------------------
  const std::size_t compressed_per_tenant = s0.compressed_key_bytes();
  const std::size_t eager_per_tenant = s0.expanded_key_bytes();
  // Actual bytes one *cached* expanded key occupies (stored digits only).
  const std::size_t cached_key_bytes = 2 *
                                       static_cast<std::size_t>(
                                           s0.rlk.stored_digits) *
                                       s0.rlk.limbs * ctx->n() * sizeof(u64);
  const std::size_t working_set =
      tenants * (kRotations + 1) * cached_key_bytes;
  const double per_tenant_ratio = static_cast<double>(eager_per_tenant) /
                                  static_cast<double>(compressed_per_tenant);
  std::printf("key cache (n=%zu, L=%zu, %zu tenants x %d rotation keys)\n",
              ctx->n(), ctx->max_limbs(), tenants, kRotations);
  std::printf("  per tenant: compressed %zu B vs eager %zu B  (%.2fx)\n",
              compressed_per_tenant, eager_per_tenant, per_tenant_ratio);
  std::printf("  at %zu tenants: %zu KiB registry vs %zu KiB eager\n",
              tenants, tenants * compressed_per_tenant / 1024,
              tenants * eager_per_tenant / 1024);
  {
    abc::bench::BenchResult r;
    r.name = "resident_key_bytes";
    r.metrics.emplace_back("tenants", static_cast<double>(tenants));
    r.metrics.emplace_back("keys_per_tenant",
                           static_cast<double>(kRotations + 1));
    r.metrics.emplace_back("compressed_bytes_per_tenant",
                           static_cast<double>(compressed_per_tenant));
    r.metrics.emplace_back("eager_bytes_per_tenant",
                           static_cast<double>(eager_per_tenant));
    r.metrics.emplace_back("registry_bytes_total",
                           static_cast<double>(tenants *
                                               compressed_per_tenant));
    r.metrics.emplace_back("eager_bytes_total",
                           static_cast<double>(tenants * eager_per_tenant));
    r.metrics.emplace_back("reduction_ratio", per_tenant_ratio);
    r.metrics.emplace_back("cached_key_bytes",
                           static_cast<double>(cached_key_bytes));
    r.metrics.emplace_back("working_set_bytes",
                           static_cast<double>(working_set));
    reporter.add_record(std::move(r));
  }

  // -- warm cache vs eager throughput -----------------------------------------
  const auto msgs = random_batch(4, client_ctx->slots(), 7);
  const std::vector<u8> upload =
      client.upload(msgs, client_ctx->max_limbs() - 1);
  const auto cts = abc::ckks::deserialize_ciphertext_batch(ctx, upload);
  abc::engine::BatchEvaluator eval(ctx);

  const abc::ckks::GaloisKeys eager_gks = s0.expand_gks();
  const abc::ckks::EagerKeySource eager_src(&eager_gks, nullptr);
  const double eager_s = abc::bench::time_best_of(reps, [&] {
    for (std::size_t i = 0; i < warm_iters; ++i) {
      (void)eval.rotate_batch(cts, 1 + static_cast<int>(i % kRotations),
                              eager_src);
    }
  });

  KeyCache warm_cache(working_set);
  const TenantKeySource warm_src(warm_cache, s0);
  for (int st = 1; st <= kRotations; ++st) {  // prefill: misses paid here
    (void)warm_src.galois_key(st);
  }
  const double warm_s = abc::bench::time_best_of(reps, [&] {
    for (std::size_t i = 0; i < warm_iters; ++i) {
      (void)eval.rotate_batch(cts, 1 + static_cast<int>(i % kRotations),
                              warm_src);
    }
  });

  KeyCache thrash_cache(1);
  const TenantKeySource thrash_src(thrash_cache, s0);
  const double thrash_s = abc::bench::time_best_of(reps, [&] {
    for (std::size_t i = 0; i < warm_iters; ++i) {
      (void)eval.rotate_batch(cts, 1 + static_cast<int>(i % kRotations),
                              thrash_src);
    }
  });

  const double items = static_cast<double>(warm_iters * cts.size());
  const double warm_over_eager = eager_s / warm_s;  // >= 0.9 is the gate
  std::printf("  rotate throughput: eager %.0f cts/s, warm cache %.0f cts/s "
              "(%.3fx), thrash %.0f cts/s\n",
              items / eager_s, items / warm_s, warm_over_eager,
              items / thrash_s);
  {
    abc::bench::BenchResult r;
    r.name = "rotate_throughput";
    r.metrics.emplace_back("eager_cts_per_s", items / eager_s);
    r.metrics.emplace_back("warm_cache_cts_per_s", items / warm_s);
    r.metrics.emplace_back("thrash_cts_per_s", items / thrash_s);
    r.metrics.emplace_back("warm_over_eager", warm_over_eager);
    reporter.add_record(std::move(r));
  }

  // -- capacity sweep at N tenants --------------------------------------------
  // Round-robin over every (tenant, step) pair: the adversarial pattern
  // for an LRU bounded below the working set.
  const auto ct_one = std::vector<abc::ckks::Ciphertext>{cts[0]};
  struct Cap {
    const char* name;
    std::size_t bytes;
  };
  const Cap caps[] = {
      {"thrash_1B", 1},
      {"four_keys", 4 * cached_key_bytes},
      {"quarter_ws", working_set / 4},
      {"full_ws", working_set},
  };
  for (const Cap& cap : caps) {
    KeyCache cache(cap.bytes);
    std::size_t rotations = 0;
    const double seconds = abc::bench::time_best_of(reps, [&] {
      rotations = 0;
      for (int round = 0; round < 2; ++round) {
        for (const auto& session : sessions) {
          const TenantKeySource src(cache, session);
          for (int st = 1; st <= kRotations; ++st) {
            (void)eval.rotate_batch(ct_one, st, src);
            ++rotations;
          }
        }
      }
    });
    const KeyCache::Stats st = cache.stats();
    const double rps = static_cast<double>(rotations) / seconds;
    std::printf("  capacity %-10s %10zu B: %8.1f rot/s  hits %llu  "
                "misses %llu  evictions %llu  resident %zu B\n",
                cap.name, cap.bytes, rps,
                static_cast<unsigned long long>(st.hits),
                static_cast<unsigned long long>(st.misses),
                static_cast<unsigned long long>(st.evictions),
                st.resident_bytes);
    abc::bench::BenchResult r;
    r.name = std::string("capacity_sweep_") + cap.name;
    r.labels.emplace_back("capacity", cap.name);
    r.metrics.emplace_back("capacity_bytes", static_cast<double>(cap.bytes));
    r.metrics.emplace_back("tenants", static_cast<double>(tenants));
    r.metrics.emplace_back("rotations_per_s", rps);
    r.metrics.emplace_back("hits", static_cast<double>(st.hits));
    r.metrics.emplace_back("misses", static_cast<double>(st.misses));
    r.metrics.emplace_back("evictions", static_cast<double>(st.evictions));
    r.metrics.emplace_back("resident_bytes",
                           static_cast<double>(st.resident_bytes));
    reporter.add_record(std::move(r));
  }

  if (!args.json_path.empty() && !reporter.write(args.json_path)) {
    std::fprintf(stderr, "failed to write %s\n", args.json_path.c_str());
    return 1;
  }
  return 0;
}
