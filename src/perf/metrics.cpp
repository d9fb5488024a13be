#include "perf/metrics.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/table.h"

namespace detstl::perf {

const char* metric_kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

const char* metric_source_name(MetricSource s) {
  switch (s) {
    case MetricSource::kSim: return "sim";
    case MetricSource::kHost: return "host";
  }
  return "?";
}

void HistogramData::record(u64 value) {
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  counts[static_cast<std::size_t>(it - bounds.begin())] += 1;
  ++total;
  sum += value;
}

namespace {

Metric& upsert(std::map<std::pair<std::string, std::string>, Metric>& series,
               const std::string& name, const std::string& labels,
               MetricKind kind, MetricSource source) {
  Metric& m = series[{name, labels}];
  // First writer fixes kind and source; a series cannot change type later.
  if (m.counter == 0 && m.gauge == 0.0 && m.hist.total == 0 &&
      m.hist.bounds.empty()) {
    m.kind = kind;
    m.source = source;
  }
  assert(m.kind == kind && "metric series re-registered with another kind");
  return m;
}

}  // namespace

void Registry::add_counter(const std::string& name, const std::string& labels,
                           u64 delta, MetricSource source) {
  upsert(series_, name, labels, MetricKind::kCounter, source).counter += delta;
}

void Registry::set_counter(const std::string& name, const std::string& labels,
                           u64 value, MetricSource source) {
  upsert(series_, name, labels, MetricKind::kCounter, source).counter = value;
}

void Registry::set_gauge(const std::string& name, const std::string& labels,
                         double value, MetricSource source) {
  upsert(series_, name, labels, MetricKind::kGauge, source).gauge = value;
}

void Registry::record_hist(const std::string& name, const std::string& labels,
                           const std::vector<u64>& bounds, u64 value,
                           MetricSource source) {
  Metric& m = upsert(series_, name, labels, MetricKind::kHistogram, source);
  if (m.hist.bounds.empty()) {
    m.hist.bounds = bounds;
    m.hist.counts.assign(bounds.size() + 1, 0);
  }
  assert(m.hist.bounds == bounds && "histogram bucket layout changed");
  m.hist.record(value);
}

void Registry::set_histogram(const std::string& name, const std::string& labels,
                             HistogramData hist, MetricSource source) {
  Metric& m = upsert(series_, name, labels, MetricKind::kHistogram, source);
  m.hist = std::move(hist);
}

void Registry::visit(const std::function<void(const std::string&,
                                              const std::string&,
                                              const Metric&)>& fn) const {
  for (const auto& [key, m] : series_) fn(key.first, key.second, m);
}

const Metric* Registry::find(const std::string& name,
                             const std::string& labels) const {
  const auto it = series_.find({name, labels});
  return it == series_.end() ? nullptr : &it->second;
}

u64 Registry::sim_fingerprint() const {
  ConfigHasher h;
  for (const auto& [key, m] : series_) {
    if (m.source != MetricSource::kSim) continue;
    h.bytes(key.first.data(), key.first.size());
    h.bytes(key.second.data(), key.second.size());
    h.u64v(static_cast<u64>(m.kind));
    switch (m.kind) {
      case MetricKind::kCounter:
        h.u64v(m.counter);
        break;
      case MetricKind::kGauge:
        // Gauges are host-side by convention; a sim gauge hashes its bits.
        h.f64v(m.gauge);
        break;
      case MetricKind::kHistogram:
        for (const u64 b : m.hist.bounds) h.u64v(b);
        for (const u64 c : m.hist.counts) h.u64v(c);
        h.u64v(m.hist.total);
        h.u64v(m.hist.sum);
        break;
    }
  }
  return h.digest();
}

std::string Registry::render(const std::string& title) const {
  TextTable t(title);
  t.header({"metric", "labels", "src", "value"});
  for (const auto& [key, m] : series_) {
    std::string value;
    switch (m.kind) {
      case MetricKind::kCounter:
        value = TextTable::fmt_int(static_cast<long long>(m.counter));
        break;
      case MetricKind::kGauge:
        value = TextTable::fmt_fixed(m.gauge, 3);
        break;
      case MetricKind::kHistogram:
        value = TextTable::fmt_int(static_cast<long long>(m.hist.total)) +
                " samples, sum " +
                TextTable::fmt_int(static_cast<long long>(m.hist.sum));
        break;
    }
    t.row({key.first, key.second, metric_source_name(m.source), value});
  }
  return t.str();
}

}  // namespace detstl::perf
