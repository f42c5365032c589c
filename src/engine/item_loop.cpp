#include "engine/item_loop.hpp"

#include "common/check.hpp"
#include "common/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace abc::engine {

namespace {

// Leaked (like the global registry) so late batches during static
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

void BatchErrorReport::rethrow_first() const {
  for (const ItemStatus& st : items) {
    if (st.ok) continue;
    ABC_CHECK_STATE(st.exception != nullptr, "failed item kept no exception");
    std::rethrow_exception(st.exception);
  }
}

BatchErrorReport run_items(std::size_t count, const char* point,
                           const std::function<void(std::size_t)>& job) {
  EngineMetrics& m = engine_metrics();
  BatchErrorReport report;
  report.items.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    ItemStatus& st = report.items[i];
    const u64 t0 = obs::now_ns();
    try {
      ABC_FAILPOINT(point);
      job(i);
    } catch (const std::exception& e) {
      st = {false, e.what(), std::current_exception()};
    } catch (...) {
      st = {false, "unknown exception", std::current_exception()};
    }
    m.item_ns.record(obs::now_ns() - t0);
    if (st.ok) {
      ++report.succeeded;
      m.processed.inc();
    } else {
      if (report.failed == 0) report.first_error = st.error;
      ++report.failed;
      m.failed.inc();
    }
  }
  return report;
}

}  // namespace abc::engine
