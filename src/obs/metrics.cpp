#include "src/obs/metrics.hpp"

#include <ostream>

#include "src/obs/json.hpp"

namespace beepmis::obs {

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].merge(c);
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, t] : other.timers_) timers_[name].merge(t);
  for (const auto& [name, d] : other.digests_) digests_[name].merge(d);
}

void MetricsRegistry::write_json(std::ostream& os) const {
  JsonWriter w(os);
  w.begin_object();

  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();

  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g.value());
  w.end_object();

  w.key("timers").begin_object();
  for (const auto& [name, t] : timers_) {
    w.key(name);
    w.begin_object();
    w.field("count", t.count());
    w.field("total_ns", t.total_ns());
    w.field("max_ns", t.max_ns());
    w.field("mean_ns", t.count() == 0
                           ? 0.0
                           : static_cast<double>(t.total_ns()) /
                                 static_cast<double>(t.count()));
    w.end_object();
  }
  w.end_object();

  w.key("digests").begin_object();
  for (const auto& [name, d] : digests_) {
    w.key(name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(d.count()));
    if (d.count() > 0) {
      w.field("min", d.min());
      w.field("max", d.max());
      w.field("mean", d.mean());
      w.field("p50", d.quantile(0.50));
      w.field("p90", d.quantile(0.90));
      w.field("p95", d.quantile(0.95));
      w.field("p99", d.quantile(0.99));
    }
    w.end_object();
  }
  w.end_object();

  w.end_object();
}

}  // namespace beepmis::obs
