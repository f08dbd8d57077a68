#include "controlplane/monitor.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace maton::cp {

Result<ServiceTraffic> TrafficMonitor::read_service(
    std::size_t service) const {
  const auto& services = binding_.gwlb().services;
  if (service >= services.size()) {
    return invalid_argument("monitor names a non-existent service");
  }
  const workloads::GwlbService& svc = services[service];
  if (svc.src_prefixes.empty()) {
    return failed_precondition("monitor targets a removed service");
  }

  // All of the service's traffic is matched by its entry-table rules — M
  // per-backend rules on the universal representation, a single service
  // rule on the normalized ones.
  const dp::FlatRules rules = binding_.entry_rules(service);
  if (rules.empty()) {
    return internal_error("no entry-table rules carry the service's "
                          "identity; binding out of sync with program");
  }

  static auto& registry = obs::MetricRegistry::global();
  static obs::Counter& counters_read =
      registry.counter("maton_cp_monitor_counters_read_total");
  static obs::Counter& aggregation_steps =
      registry.counter("maton_cp_monitor_aggregation_steps_total");

  const obs::TraceSpan span("monitor_read");
  ServiceTraffic traffic;
  for (const dp::RuleView rule : rules) {
    const auto count =
        target_.read_rule_counter(binding_.program().entry, rule.matches);
    if (!count.is_ok()) return count.status();
    traffic.packets += count.value();
    ++traffic.counters_read;
  }
  traffic.aggregation_steps = traffic.counters_read - 1;
  counters_read.add(traffic.counters_read);
  aggregation_steps.add(traffic.aggregation_steps);
  return traffic;
}

}  // namespace maton::cp
