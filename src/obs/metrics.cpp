#include "obs/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/failpoint.hpp"

namespace abc::obs {

const char* kind_name(Kind k) noexcept {
  switch (k) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "unknown";
}

double HistogramValue::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double prev = cum;
    cum += static_cast<double>(buckets[i]);
    if (cum >= target) {
      const double lower = static_cast<double>(hist_bucket_lower(i));
      const double upper = static_cast<double>(hist_bucket_upper(i));
      const double frac =
          (target - prev) / static_cast<double>(buckets[i]);
      return lower + (upper - lower) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return 0.0;  // unreachable when count matches the buckets
}

namespace {

template <class T>
const T* find_by_name(const std::vector<T>& values,
                      std::string_view name) noexcept {
  for (const T& v : values) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

}  // namespace

const CounterValue* MetricsSnapshot::counter(
    std::string_view name) const noexcept {
  return find_by_name(counters, name);
}

const GaugeValue* MetricsSnapshot::gauge(std::string_view name) const noexcept {
  return find_by_name(gauges, name);
}

const HistogramValue* MetricsSnapshot::histogram(
    std::string_view name) const noexcept {
  return find_by_name(histograms, name);
}

using Cells = std::array<u64, kHistBuckets + 1>;

namespace detail {

struct Instance {
  Registry* reg = nullptr;
  u32 def = 0;
  std::vector<std::atomic<u64>> cells;  // 1, or kHistBuckets + 1 (sum last)

  /// Adds this instance's cells into @p into (relaxed loads racing live
  /// writers are benign; see header).
  void add_into(Cells& into) const noexcept {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      into[i] += cells[i].load(std::memory_order_relaxed);
    }
  }
};

}  // namespace detail

namespace {

HistogramValue to_histogram(std::string name, const Cells& cells) {
  HistogramValue h;
  h.name = std::move(name);
  for (std::size_t i = 0; i < kHistBuckets; ++i) {
    h.buckets[i] = cells[i];
    h.count += cells[i];
  }
  h.sum = cells[kHistBuckets];
  return h;
}

}  // namespace

struct Registry::Impl {
  struct Definition {
    std::string name;
    Kind kind = Kind::kCounter;
    // Folded totals of destroyed instances, laid out like their cells.
    // Gauges fold their (signed) deltas into the same u64 in two's
    // complement.
    Cells retired{};
    std::vector<std::unique_ptr<detail::Instance>> live;
  };

  mutable std::mutex m;
  std::vector<Definition> defs;
  std::unordered_map<std::string, u32> by_name;
  std::vector<std::pair<std::string, u64 (*)()>> external;

  u32 ensure_def(std::string_view name, Kind kind) {
    const auto it = by_name.find(std::string(name));
    if (it != by_name.end()) {
      ABC_CHECK_ARG(defs[it->second].kind == kind,
                    "metric '" + std::string(name) +
                        "' re-registered with a different kind");
      return it->second;
    }
    const u32 idx = static_cast<u32>(defs.size());
    Definition def;
    def.name = std::string(name);
    def.kind = kind;
    defs.push_back(std::move(def));
    by_name.emplace(std::string(name), idx);
    return idx;
  }
};

Registry::Registry() : impl_(new Impl) {}

Registry::~Registry() { delete impl_; }

Registry& Registry::global() {
  // Deliberately leaked: static handles (e.g. the transport counters) may
  // record during process teardown, and a destroyed global registry
  // would turn those into use-after-free.
  static Registry* reg = [] {
    auto* r = new Registry();
    for (const catalog::Entry& e : catalog::kAll) r->ensure(e.name, e.kind);
    r->add_external_counter(catalog::kFailpointHits, &fail::total_hits);
    r->add_external_counter(catalog::kFailpointFires, &fail::total_fires);
    return r;
  }();
  return *reg;
}

void Registry::ensure(std::string_view name, Kind kind) {
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->ensure_def(name, kind);
}

void Registry::add_external_counter(std::string_view name, u64 (*read)()) {
  std::lock_guard<std::mutex> lock(impl_->m);
  impl_->ensure_def(name, Kind::kCounter);
  impl_->external.emplace_back(std::string(name), read);
}

detail::Instance* Registry::register_instance(std::string_view name,
                                              Kind kind) {
  std::lock_guard<std::mutex> lock(impl_->m);
  const u32 def = impl_->ensure_def(name, kind);
  const std::size_t span = kind == Kind::kHistogram ? kHistBuckets + 1 : 1;
  auto inst = std::make_unique<detail::Instance>(
      this, def, std::vector<std::atomic<u64>>(span));
  detail::Instance* raw = inst.get();
  impl_->defs[def].live.push_back(std::move(inst));
  return raw;
}

Counter Registry::counter(std::string_view name) {
  return Counter(register_instance(name, Kind::kCounter));
}

Gauge Registry::gauge(std::string_view name) {
  return Gauge(register_instance(name, Kind::kGauge));
}

Histogram Registry::histogram(std::string_view name) {
  return Histogram(register_instance(name, Kind::kHistogram));
}

void Registry::retire(detail::Instance* inst) noexcept {
  // The owner destroying its handle guarantees no thread still records
  // through it (the quiescence contract every RAII member satisfies), so
  // folding under the mutex cannot lose an increment.
  std::lock_guard<std::mutex> lock(impl_->m);
  Impl::Definition& d = impl_->defs[inst->def];
  inst->add_into(d.retired);
  std::erase_if(d.live, [inst](const auto& p) { return p.get() == inst; });
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->m);
  for (const Impl::Definition& def : impl_->defs) {
    Cells total = def.retired;
    for (const auto& inst : def.live) inst->add_into(total);
    switch (def.kind) {
      case Kind::kCounter:
        snap.counters.push_back({def.name, total[0]});
        break;
      case Kind::kGauge:
        snap.gauges.push_back({def.name, static_cast<i64>(total[0])});
        break;
      case Kind::kHistogram:
        snap.histograms.push_back(to_histogram(def.name, total));
        break;
    }
  }
  for (const auto& [name, read] : impl_->external) {
    for (CounterValue& c : snap.counters) {
      if (c.name == name) {
        c.value += read();
        break;
      }
    }
  }
  return snap;
}

// -- handles ------------------------------------------------------------------

detail::MetricHandle::~MetricHandle() {
  if (inst_ != nullptr) inst_->reg->retire(inst_);
}

detail::MetricHandle& detail::MetricHandle::operator=(
    MetricHandle&& other) noexcept {
  if (this != &other) {
    if (inst_ != nullptr) inst_->reg->retire(inst_);
    inst_ = std::exchange(other.inst_, nullptr);
  }
  return *this;
}

void Counter::inc(u64 n) noexcept {
  if (inst_ != nullptr) {
    inst_->cells[0].fetch_add(n, std::memory_order_relaxed);
  }
}

u64 Counter::value() const noexcept {
  return inst_ == nullptr ? 0
                          : inst_->cells[0].load(std::memory_order_relaxed);
}

void Gauge::add(i64 delta) noexcept {
  if (inst_ != nullptr) {
    inst_->cells[0].fetch_add(static_cast<u64>(delta),
                              std::memory_order_relaxed);
  }
}

i64 Gauge::value() const noexcept {
  return inst_ == nullptr ? 0
                          : static_cast<i64>(inst_->cells[0].load(
                                std::memory_order_relaxed));
}

void Histogram::record(u64 value) noexcept {
  if (inst_ == nullptr) return;
  const std::size_t bucket = hist_bucket_index(value);
  inst_->cells[bucket].fetch_add(1, std::memory_order_relaxed);
  inst_->cells[kHistBuckets].fetch_add(value, std::memory_order_relaxed);
}

HistogramValue Histogram::read() const noexcept {
  if (inst_ == nullptr) return {};
  Cells cells{};
  inst_->add_into(cells);
  return to_histogram({}, cells);
}

}  // namespace abc::obs
