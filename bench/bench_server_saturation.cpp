// Serving-daemon saturation bench: offered-load throughput (requests/s)
// of engine::Server at increasing per-core worker counts, plus
// closed-loop request latency percentiles. The scaling headline —
// requests/s at 4 workers over 1 — only shows on a multi-core host; on a
// single hardware thread the worker sweep degenerates to timeslicing and
// the numbers report that honestly.
//
//   bench_server_saturation [--quick] [--reps N] [--json out.json]
//
// JSON records: one per (op, workers) with requests_per_s, one latency
// record per op with p50/p99 seconds, speedup_4w_<op> scalars, and one
// histogram_layout record pinning the shared log2 bucket boundaries so
// latency numbers stay comparable across PRs.
//
// Latency percentiles come from the same obs::Histogram implementation
// the daemon's server.request_ns metric uses (one instance per op).

#include <complex>
#include <cstdio>
#include <future>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/client_session.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"

namespace {

using abc::u64;
using abc::u8;
using abc::server::Op;
using abc::server::Server;
using abc::server::ServerConfig;
using abc::server::Status;

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

abc::ckks::RequestFrame make_request(u64 tenant, u64 id, Op op,
                                     abc::i64 arg, std::vector<u8> payload) {
  abc::ckks::RequestFrame req;
  req.tenant = tenant;
  req.request_id = id;
  req.op = static_cast<u8>(op);
  req.op_arg = arg;
  req.payload = std::move(payload);
  return req;
}

}  // namespace

int main(int argc, char** argv) {
  const abc::bench::BenchArgs args = abc::bench::BenchArgs::parse(argc, argv);
  const int reps = args.reps > 0 ? args.reps : (args.quick ? 1 : 3);
  const std::size_t requests = args.quick ? 16 : 64;
  const std::size_t latency_samples = args.quick ? 12 : 64;
  std::vector<std::size_t> worker_counts = {1, 2, 4};
  if (!args.quick) worker_counts.push_back(8);

  abc::bench::JsonReporter reporter("bench_server_saturation");
  const abc::ckks::CkksParams params = abc::ckks::CkksParams::test_small(10, 3);

  // One client prepares the tenant keys and a request upload; the same
  // bytes are replayed at every worker count so every configuration does
  // identical work (and, per the soak tests, returns identical bytes).
  auto client_ctx = abc::ckks::CkksContext::create(params);
  abc::engine::ClientSession session(client_ctx,
                                     abc::engine::SessionConfig{{1}});
  const abc::engine::KeyBundle& kb = session.key_bundle();
  const abc::ckks::KeyBundleFrames frames{kb.public_key, kb.relin_key,
                                          kb.galois_keys};
  const auto msgs = random_batch(4, client_ctx->slots(), 7);
  const std::vector<u8> upload =
      session.upload(msgs, client_ctx->max_limbs() - 1);

  std::printf("server saturation (n=%zu, batch=%zu cts, %zu requests, "
              "hw threads=%u)\n",
              client_ctx->n(), msgs.size(), requests,
              std::thread::hardware_concurrency());

  struct OpCase {
    const char* name;
    Op op;
    abc::i64 arg;
  };
  const OpCase cases[] = {{"rotate", Op::kRotate, 1},
                          {"square", Op::kSquare, 0}};

  for (const OpCase& c : cases) {
    double rps_at_1 = 0.0;
    double rps_at_4 = 0.0;
    for (const std::size_t workers : worker_counts) {
      ServerConfig cfg;
      cfg.workers = workers;
      cfg.queue_capacity = std::max<std::size_t>(requests, 64);
      cfg.param_sets = {params};
      Server srv(cfg);
      const u64 tenant = srv.register_tenant(params, frames);

      const double seconds = abc::bench::time_best_of(reps, [&] {
        // Offered load from 4 feeder threads — more submitters than any
        // tested worker count, so the daemon, not the feeders, is the
        // bottleneck.
        std::vector<std::future<abc::ckks::ResponseFrame>> futures(requests);
        std::vector<std::thread> feeders;
        for (std::size_t f = 0; f < 4; ++f) {
          feeders.emplace_back([&, f] {
            for (std::size_t i = f; i < requests; i += 4) {
              futures[i] = srv.submit(
                  make_request(tenant, i, c.op, c.arg, upload));
            }
          });
        }
        for (auto& t : feeders) t.join();
        for (auto& fut : futures) {
          const abc::ckks::ResponseFrame resp = fut.get();
          if (resp.status != static_cast<u8>(Status::kOk)) {
            std::fprintf(stderr, "bench request failed: %s\n",
                         resp.error.c_str());
            std::exit(1);
          }
        }
      });
      const double rps = static_cast<double>(requests) / seconds;
      if (workers == 1) rps_at_1 = rps;
      if (workers == 4) rps_at_4 = rps;
      std::printf("  %-6s workers=%zu  %8.1f req/s  (%s total)\n", c.name,
                  workers, rps, abc::bench::fmt_time(seconds).c_str());
      abc::bench::BenchResult r;
      r.name = std::string("saturation_") + c.name;
      r.labels.emplace_back("op", c.name);
      r.metrics.emplace_back("workers", static_cast<double>(workers));
      r.metrics.emplace_back("seconds", seconds);
      r.metrics.emplace_back("requests", static_cast<double>(requests));
      r.metrics.emplace_back("requests_per_s", rps);
      reporter.add_record(std::move(r));
    }
    if (rps_at_1 > 0 && rps_at_4 > 0) {
      const double speedup = rps_at_4 / rps_at_1;
      std::printf("  %-6s speedup at 4 workers: %.2fx\n", c.name, speedup);
      reporter.add_metric(std::string("speedup_4w_") + c.name, "speedup",
                          speedup);
    }

    // Closed-loop latency on an otherwise idle daemon: one request in
    // flight, samples recorded into the shared log2 histogram (a fresh
    // per-op instance of the same implementation backing the daemon's
    // server.request_ns), percentiles extracted from its buckets.
    {
      ServerConfig cfg;
      cfg.param_sets = {params};
      Server srv(cfg);
      const u64 tenant = srv.register_tenant(params, frames);
      abc::obs::Histogram latency_ns =
          abc::obs::registry().histogram("bench.latency_ns");
      for (std::size_t i = 0; i < latency_samples; ++i) {
        const u64 t0 = abc::obs::now_ns();
        const abc::ckks::ResponseFrame resp =
            srv.call(make_request(tenant, i, c.op, c.arg, upload));
        const u64 t1 = abc::obs::now_ns();
        if (resp.status != static_cast<u8>(Status::kOk)) {
          std::fprintf(stderr, "latency request failed: %s\n",
                       resp.error.c_str());
          return 1;
        }
        latency_ns.record(t1 - t0);
      }
      const abc::obs::HistogramValue hist = latency_ns.read();
      const double p50 = hist.quantile(0.50) * 1e-9;
      const double p99 = hist.quantile(0.99) * 1e-9;
      std::printf("  %-6s latency p50 %s  p99 %s  (histogram, %llu samples)\n",
                  c.name, abc::bench::fmt_time(p50).c_str(),
                  abc::bench::fmt_time(p99).c_str(),
                  static_cast<unsigned long long>(hist.count));
      abc::bench::BenchResult r;
      r.name = std::string("latency_") + c.name;
      r.labels.emplace_back("op", c.name);
      r.metrics.emplace_back("p50_seconds", p50);
      r.metrics.emplace_back("p99_seconds", p99);
      r.metrics.emplace_back("samples", static_cast<double>(hist.count));
      reporter.add_record(std::move(r));
    }
  }

  // Pin the shared histogram layout into the JSON: every latency record
  // above (and every server scrape) buckets against these boundaries, so
  // runs are comparable across PRs as long as this record matches.
  {
    abc::bench::BenchResult r;
    r.name = "histogram_layout";
    r.metrics.emplace_back("buckets",
                           static_cast<double>(abc::obs::kHistBuckets));
    for (std::size_t i = 0; i < abc::obs::kHistBuckets; ++i) {
      char key[32];
      std::snprintf(key, sizeof key, "lower_%02zu", i);
      r.metrics.emplace_back(
          key, static_cast<double>(abc::obs::hist_bucket_lower(i)));
    }
    reporter.add_record(std::move(r));
  }

  if (!args.json_path.empty() && !reporter.write(args.json_path)) return 1;
  return 0;
}
