#include "analysis/analysis.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/format.hpp"

namespace maton::analysis {

namespace detail {

Sink::Sink(std::string pass, const Options& options, Report& report)
    : pass_(std::move(pass)), options_(options), report_(report) {}

Sink::~Sink() {
  report_.passes.push_back({pass_, emitted_, ran_});
  obs::MetricRegistry::global()
      .counter("maton_analysis_diagnostics_total", {{"pass", pass_}})
      .add(emitted_);
  if (ran_) {
    obs::MetricRegistry::global()
        .counter("maton_analysis_pass_runs_total", {{"pass", pass_}})
        .add();
  }
}

bool Sink::wants(Severity severity) const noexcept {
  return severity >= options_.min_severity;
}

void Sink::emit(Diagnostic d) {
  if (!wants(d.severity)) return;
  if (emitted_ >= options_.max_diagnostics_per_pass) {
    if (!truncated_) {
      truncated_ = true;
      report_.diagnostics.push_back(
          {Severity::kInfo, "MA001", pass_, std::nullopt, std::nullopt,
           "diagnostics truncated after " +
               std::to_string(options_.max_diagnostics_per_pass) +
               " findings",
           ""});
    }
    return;
  }
  d.pass = pass_;
  report_.diagnostics.push_back(std::move(d));
  ++emitted_;
}

std::string describe_rule(const dp::RuleView& rule) {
  std::string out = "prio=" + std::to_string(rule.priority);
  for (const dp::FieldMatch m : rule.matches) {
    out += " ";
    out += to_string(m.field);
    out += "=";
    out += format_hex(m.value);
    if (m.mask != dp::field_full_mask(m.field)) {
      out += "/";
      out += format_hex(m.mask);
    }
  }
  if (rule.goto_table.has_value()) {
    out += " goto=" + std::to_string(*rule.goto_table);
  }
  return out;
}

}  // namespace detail

Report run(const Input& input, const Options& options) {
  const obs::TraceSpan span("analyze");
  Report report;
  if (options.shadowing) run_shadowing_pass(input, options, report);
  if (options.reachability) run_reachability_pass(input, options, report);
  if (options.dataflow) run_dataflow_pass(input, options, report);
  if (options.schema_nf) run_schema_nf_pass(input, options, report);
  if (options.decomposition) {
    run_decomposition_pass(input, options, report);
  }
  if (options.symbolic) run_symbolic_pass(input, options, report);
  obs::MetricRegistry::global()
      .counter("maton_analysis_runs_total")
      .add();
  return report;
}

}  // namespace maton::analysis
