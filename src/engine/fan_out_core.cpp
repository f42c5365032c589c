#include "engine/fan_out_core.hpp"

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abc::engine {

namespace {

// Leaked (like the global registry) so late fan-outs during static
// teardown still have live handles.
struct EngineMetrics {
  obs::Counter processed =
      obs::registry().counter(obs::catalog::kEngineItemsProcessed);
  obs::Counter failed =
      obs::registry().counter(obs::catalog::kEngineItemsFailed);
  obs::Histogram item_ns =
      obs::registry().histogram(obs::catalog::kEngineItemNs);
};

EngineMetrics& engine_metrics() {
  static EngineMetrics* m = new EngineMetrics;
  return *m;
}

}  // namespace

BatchErrorReport BatchErrorReport::fold(std::vector<ItemStatus> items) {
  BatchErrorReport report;
  report.items = std::move(items);
  for (const ItemStatus& st : report.items) {
    if (st.ok) {
      ++report.succeeded;
    } else {
      if (report.failed == 0) report.first_error = st.error;
      ++report.failed;
    }
  }
  return report;
}

void BatchErrorReport::rethrow_first() const {
  for (const ItemStatus& st : items) {
    if (st.ok) continue;
    ABC_CHECK_STATE(st.exception != nullptr, "failed item kept no exception");
    std::rethrow_exception(st.exception);
  }
}

FanOutCore::FanOutCore(std::shared_ptr<const ckks::CkksContext> ctx)
    : ctx_(std::move(ctx)) {
  ABC_CHECK_ARG(ctx_ != nullptr, "null context");
  workers_ = ctx_->backend().workers();
}

BatchErrorReport FanOutCore::run(std::size_t count, const Job& job) const {
  std::vector<ItemStatus> statuses(count);
  if (count != 0) {
    EngineMetrics& m = engine_metrics();
    ctx_->backend().parallel_for(count, [&](std::size_t i,
                                            std::size_t worker) {
      // Each slot is owned by exactly one item, so recording the outcome
      // needs no lock and a failed neighbour cannot disturb a success.
      ItemStatus& st = statuses[i];
      const u64 t0 = obs::now_ns();
      try {
        job(i, worker);
      } catch (const std::exception& e) {
        st = {false, e.what(), std::current_exception()};
      } catch (...) {
        st = {false, "unknown exception", std::current_exception()};
      }
      m.item_ns.record(obs::now_ns() - t0);
      (st.ok ? m.processed : m.failed).inc();
    });
  }
  return BatchErrorReport::fold(std::move(statuses));
}

BatchErrorReport FanOutCore::run_with_ids(std::size_t count,
                                          const IdJob& job) const {
  const u64 base = reserve_stream_ids(count);
  return run(count, [&](std::size_t i, std::size_t worker) {
    job(i, worker, base + i);
  });
}

}  // namespace abc::engine
