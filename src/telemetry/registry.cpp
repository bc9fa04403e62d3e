#include "src/telemetry/registry.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ssdse::telemetry {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void MetricsRegistry::add_entry(Entry e) {
  for (const auto& existing : entries_) {
    if (existing.name == e.name) {
      throw std::invalid_argument("duplicate metric name: " + e.name);
    }
  }
  entries_.push_back(std::move(e));
}

void MetricsRegistry::counter(const std::string& name,
                              const std::uint64_t* source) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.counter_src = source;
  add_entry(std::move(e));
}

void MetricsRegistry::counter_fn(const std::string& name,
                                 std::function<std::uint64_t()> fn) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kCounter;
  e.counter_fn = std::move(fn);
  add_entry(std::move(e));
}

void MetricsRegistry::gauge(const std::string& name,
                            std::function<double()> fn) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.gauge_fn = std::move(fn);
  add_entry(std::move(e));
}

void MetricsRegistry::ratio(const std::string& name,
                            std::vector<std::string> numerator,
                            std::vector<std::string> denominator) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kGauge;
  e.quotient = std::make_shared<const Quotient>(
      Quotient{std::move(numerator), std::move(denominator)});
  add_entry(std::move(e));
}

void MetricsRegistry::gauge_value(const std::string& name, double v) {
  gauge(name, [v] { return v; });
}

void MetricsRegistry::histogram(const std::string& name,
                                const LatencyHistogram* source) {
  Entry e;
  e.name = name;
  e.kind = MetricKind::kHistogram;
  e.hist_src = source;
  add_entry(std::move(e));
}

void MetricsRegistry::stats(const std::string& name,
                            const StreamingStats* source) {
  counter_fn(name + ".count", [source] { return source->count(); });
  gauge(name + ".mean", [source] { return source->mean(); });
  gauge(name + ".max", [source] { return source->max(); });
}

RegistrySnapshot MetricsRegistry::snapshot() const {
  RegistrySnapshot snap;
  snap.metrics_.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.name = e.name;
    m.kind = e.kind;
    m.quotient = e.quotient;
    switch (e.kind) {
      case MetricKind::kCounter:
        m.counter = e.counter_src ? *e.counter_src : e.counter_fn();
        break;
      case MetricKind::kGauge:
        if (!e.quotient) m.gauge.add(e.gauge_fn());
        break;
      case MetricKind::kHistogram:
        m.hist = *e.hist_src;
        break;
    }
    snap.metrics_.push_back(std::move(m));
  }
  std::sort(snap.metrics_.begin(), snap.metrics_.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  snap.derive_ratios();
  return snap;
}

void RegistrySnapshot::merge(const RegistrySnapshot& other) {
  std::vector<MetricSnapshot> merged;
  merged.reserve(metrics_.size() + other.metrics_.size());
  std::size_t i = 0, j = 0;
  while (i < metrics_.size() || j < other.metrics_.size()) {
    if (j == other.metrics_.size() ||
        (i < metrics_.size() && metrics_[i].name < other.metrics_[j].name)) {
      merged.push_back(std::move(metrics_[i++]));
      continue;
    }
    if (i == metrics_.size() || other.metrics_[j].name < metrics_[i].name) {
      merged.push_back(other.metrics_[j++]);
      continue;
    }
    // Same name on both sides: fold.
    MetricSnapshot m = std::move(metrics_[i++]);
    const MetricSnapshot& o = other.metrics_[j++];
    if (m.kind != o.kind) {
      throw std::invalid_argument("metric kind mismatch on merge: " + m.name);
    }
    if (m.quotient ? !o.quotient || *m.quotient != *o.quotient
                   : o.quotient != nullptr) {
      throw std::invalid_argument("ratio definition mismatch on merge: " +
                                  m.name);
    }
    switch (m.kind) {
      case MetricKind::kCounter:
        m.counter += o.counter;
        break;
      case MetricKind::kGauge:
        m.gauge.merge(o.gauge);
        break;
      case MetricKind::kHistogram:
        m.hist.merge(o.hist);
        break;
    }
    merged.push_back(std::move(m));
  }
  metrics_ = std::move(merged);
  derive_ratios();
}

void RegistrySnapshot::derive_ratios() {
  const auto sum = [this](const MetricSnapshot& ratio,
                          const std::vector<std::string>& names) {
    std::uint64_t total = 0;
    for (const std::string& name : names) {
      const MetricSnapshot* m = find(name);
      if (m == nullptr || m->kind != MetricKind::kCounter) {
        throw std::logic_error(ratio.name + " names " + name +
                               ", which is not a counter");
      }
      total += m->counter;
    }
    return total;
  };
  for (MetricSnapshot& m : metrics_) {
    if (!m.quotient) continue;
    const std::uint64_t num = sum(m, m.quotient->numerator);
    const std::uint64_t den = sum(m, m.quotient->denominator);
    m.gauge = StreamingStats{};
    m.gauge.add(den ? static_cast<double>(num) / static_cast<double>(den)
                    : 0.0);
  }
}

const MetricSnapshot* RegistrySnapshot::find(const std::string& name) const {
  auto it = std::lower_bound(
      metrics_.begin(), metrics_.end(), name,
      [](const MetricSnapshot& m, const std::string& n) { return m.name < n; });
  if (it == metrics_.end() || it->name != name) return nullptr;
  return &*it;
}

}  // namespace ssdse::telemetry
