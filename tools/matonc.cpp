// matonc — the maton command-line normalizer.
//
//   matonc analyze   <table.maton>                 dependency & NF report
//   matonc analyze   gwlb:<repr>[@NxM[@seed]]      built-in gwlb program
//   matonc normalize <table.maton> [options]       print the pipeline
//   matonc export    <table.maton> [options]       emit a data plane
//
// Options:
//   --join goto|metadata|rematch     join abstraction   (default metadata)
//   --target 2nf|3nf|bcnf            normalization goal (default 3nf)
//   --format openflow|p4             export backend     (default openflow)
//   --no-constants                   keep constant columns inline
//   --analyze[=text|json]            run the static analyzer; with json,
//                                    print only the machine-readable report
//   --metrics[=prom|json]            dump telemetry to stderr (default prom)
//   --trace=FILE                     write Chrome trace_event JSON to FILE
//   --metrics-addr=HOST:PORT         serve /metrics, /metrics.json, /trace
//                                    and /healthz over HTTP while the
//                                    command runs (MATON_METRICS_ADDR works
//                                    too; port 0 picks an ephemeral port)
//
// Built-in specs (analyze only): gwlb:universal, gwlb:goto@20x8,
// gwlb:metadata@20x8@7, ... — the paper example, or a randomized NxM
// instance, compiled for the named representation and handed to the
// analyzer. Exit status is 1 when any error-severity diagnostic is found.
//
// normalize and export prove the pipeline equivalent to its source table
// with the symbolic engine (every packet, not a sample). A refutation or
// an inconclusive proof exits 1 with the counterexample or solver note.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/symbolic/engine.hpp"
#include "controlplane/compiler.hpp"
#include "dataplane/program.hpp"
#include "core/fd_mine.hpp"
#include "core/mvd.hpp"
#include "core/normal_forms.hpp"
#include "core/synthesis.hpp"
#include "core/text.hpp"
#include "export/openflow.hpp"
#include "export/p4.hpp"
#include "obs/expose.hpp"
#include "obs/server.hpp"
#include "obs/trace.hpp"
#include "workloads/gwlb.hpp"

namespace {

using namespace maton;

int usage(std::ostream& os) {
  os << "usage: matonc <analyze|normalize|export> <table.maton|gwlb:SPEC>\n"
        "  [--join goto|metadata|rematch] [--target 2nf|3nf|bcnf]\n"
        "  [--format openflow|p4] [--no-constants]\n"
        "  [--analyze[=text|json]]\n"
        "  [--metrics[=prom|json]] [--trace=FILE]\n"
        "  [--metrics-addr=HOST:PORT]\n"
        "gwlb:SPEC (analyze only): <repr>[@NxM[@seed]] with repr one of\n"
        "  universal|goto|metadata|rematch\n";
  return 2;
}

struct CliOptions {
  std::string command;
  std::string path;
  core::JoinKind join = core::JoinKind::kMetadata;
  core::NormalForm target = core::NormalForm::kThird;
  std::string format = "openflow";
  bool factor_constants = true;
  std::string analyze_report;  // empty = off, else "text" or "json"
  std::string metrics;         // empty = off, else "prom" or "json"
  std::string trace_path;      // empty = off
  std::string metrics_addr;    // empty = MATON_METRICS_ADDR or off
};

bool parse_args(const std::vector<std::string>& args, CliOptions& opts,
                std::ostream& err) {
  if (args.size() < 2) return false;
  opts.command = args[0];
  opts.path = args[1];
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    if (arg == "--join") {
      const std::string* v = next();
      if (v == nullptr) return false;
      if (*v == "goto") {
        opts.join = core::JoinKind::kGoto;
      } else if (*v == "metadata") {
        opts.join = core::JoinKind::kMetadata;
      } else if (*v == "rematch") {
        opts.join = core::JoinKind::kRematch;
      } else {
        err << "unknown join '" << *v << "'\n";
        return false;
      }
    } else if (arg == "--target") {
      const std::string* v = next();
      if (v == nullptr) return false;
      if (*v == "2nf") {
        opts.target = core::NormalForm::kSecond;
      } else if (*v == "3nf") {
        opts.target = core::NormalForm::kThird;
      } else if (*v == "bcnf") {
        opts.target = core::NormalForm::kBoyceCodd;
      } else {
        err << "unknown target '" << *v << "'\n";
        return false;
      }
    } else if (arg == "--format") {
      const std::string* v = next();
      if (v == nullptr) return false;
      opts.format = *v;
    } else if (arg == "--no-constants") {
      opts.factor_constants = false;
    } else if (arg == "--analyze" || arg.starts_with("--analyze=")) {
      const std::string v =
          arg == "--analyze" ? "text" : arg.substr(sizeof("--analyze=") - 1);
      if (v != "text" && v != "json") {
        err << "unknown analyze report format '" << v << "'\n";
        return false;
      }
      opts.analyze_report = v;
    } else if (arg == "--metrics" || arg.starts_with("--metrics=")) {
      const std::string v =
          arg == "--metrics" ? "prom" : arg.substr(sizeof("--metrics=") - 1);
      if (v != "prom" && v != "json") {
        err << "unknown metrics format '" << v << "'\n";
        return false;
      }
      opts.metrics = v;
    } else if (arg.starts_with("--trace=")) {
      opts.trace_path = arg.substr(sizeof("--trace=") - 1);
      if (opts.trace_path.empty()) {
        err << "--trace requires a file path\n";
        return false;
      }
    } else if (arg.starts_with("--metrics-addr=")) {
      opts.metrics_addr = arg.substr(sizeof("--metrics-addr=") - 1);
      if (opts.metrics_addr.empty()) {
        err << "--metrics-addr requires HOST:PORT\n";
        return false;
      }
    } else {
      err << "unknown option '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

int analyze(const core::ParsedSpec& spec, std::ostream& os) {
  const core::Table& table = spec.table;
  os << table.to_string() << "\n";
  const core::FdSet fds = core::mine_fds_tane(table);
  os << "functional dependencies (instance, minimal):\n"
     << fds.to_string(table.schema());
  const core::NfReport report = core::analyze(table, fds);
  os << "\n" << report.to_string(table.schema());
  if (!spec.model_fds.empty()) {
    core::FdSet model = spec.model_fds;
    model.add(table.schema().match_set(), table.schema().all());
    os << "\nunder the declared model dependencies:\n"
       << spec.model_fds.to_string(table.schema()) << "\n"
       << core::analyze(table, model).to_string(table.schema());
  }
  const core::Nf4Report nf4 = core::analyze_4nf(table, fds);
  if (!nf4.satisfied) {
    os << "beyond 3NF: proper multi-valued dependencies present:\n";
    for (const core::Mvd& mvd : nf4.violations) {
      os << "  " << to_string(mvd, table.schema()) << "\n";
    }
  }
  return 0;
}

Result<core::Pipeline> run_normalize(const core::ParsedSpec& spec,
                                     const CliOptions& opts,
                                     std::ostream& os) {
  const core::Table& table = spec.table;
  std::optional<core::FdSet> model;
  if (!spec.model_fds.empty()) {
    model = spec.model_fds;
    model->add(table.schema().match_set(), table.schema().all());
    os << "# normalizing against the declared model dependencies\n";
  }
  auto out = core::normalize(
      table, {.target = opts.target,
              .join = opts.join,
              .factor_constant_columns = opts.factor_constants,
              .model_fds = std::move(model)});
  if (!out.is_ok()) return out.status();
  for (const auto& step : out.value().trace) {
    os << "# " << step.description << "\n";
  }
  for (const std::string& skipped : out.value().skipped) {
    os << "# skipped: " << skipped << "\n";
  }
  // Proof-gated normalization: the pipeline must be *proven* equivalent
  // to the source table — every packet, not a probe sample. Anything
  // short of a proof is an error.
  const auto proof = analysis::symbolic::check_table_vs_pipeline(
      table, out.value().pipeline);
  if (!proof.equivalent()) {
    return internal_error("normalization not proven equivalent: " +
                          analysis::symbolic::describe(proof));
  }
  os << "# verified equivalent symbolically (" << proof.stats.nodes
     << " diagram nodes)\n";
  return std::move(out).value().pipeline;
}

/// Renders the report in the requested format and maps error-severity
/// findings onto exit status 1.
int emit_report(const analysis::Report& report, const CliOptions& opts,
                std::ostream& os) {
  os << (opts.analyze_report == "json" ? analysis::render_json(report)
                                       : analysis::render_text(report));
  return report.count(analysis::Severity::kError) > 0 ? 1 : 0;
}

/// Parses and analyzes a built-in program spec of the form
/// gwlb:<repr>[@NxM[@seed]]: the paper's Fig. 1 example (no shape) or a
/// randomized make_gwlb instance, compiled for the named representation.
int run_builtin_analyze(const CliOptions& opts, std::ostream& os,
                        std::ostream& err) {
  if (opts.command != "analyze") {
    err << "built-in specs support only the analyze command\n";
    return 2;
  }
  std::string rest = opts.path.substr(sizeof("gwlb:") - 1);
  std::string shape;
  if (const auto at = rest.find('@'); at != std::string::npos) {
    shape = rest.substr(at + 1);
    rest.resize(at);
  }

  const std::optional<cp::Representation> parsed =
      cp::parse_representation(rest);
  if (!parsed.has_value()) {
    err << "unknown representation '" << rest << "'\n";
    return 2;
  }
  const cp::Representation repr = *parsed;

  workloads::Gwlb gwlb;
  if (shape.empty()) {
    gwlb = workloads::make_paper_example();
  } else {
    workloads::GwlbConfig config;
    std::size_t services = 0;
    std::size_t backends = 0;
    std::size_t seed = config.seed;
    const int fields = std::sscanf(shape.c_str(), "%zux%zu@%zu",
                                   &services, &backends, &seed);
    if (fields < 2 || services == 0 || backends == 0) {
      err << "malformed shape '" << shape << "' (want NxM[@seed])\n";
      return 2;
    }
    config.num_services = services;
    config.num_backends = backends;
    config.seed = seed;
    gwlb = workloads::make_gwlb(config);
  }

  const cp::GwlbBinding binding(std::move(gwlb), repr);
  const workloads::Gwlb& model = binding.gwlb();
  const core::Schema& schema = model.universal.schema();
  const std::string name = "gwlb." + std::string(cp::to_string(repr));

  analysis::Input input;
  input.program = &binding.program();
  input.tables.push_back({&model.universal, &model.model_fds});
  core::FdSet join_fds = model.model_fds;
  join_fds.add(schema.match_set(), schema.all());
  analysis::Input::DecompositionCheck decomposition;
  decomposition.schema = &schema;
  decomposition.fds = &join_fds;
  decomposition.components = cp::decomposition_components(repr, schema);
  decomposition.name = name;
  input.decomposition = std::move(decomposition);

  // Symbolic pass inputs. MA601: the binding's live program against an
  // independent recompile of the same pipeline. MA603: the universal
  // table against the representation's decomposed pipeline. MA602: the
  // per-service slices of the universal program, pairwise-adjacent —
  // each proof certifies the services cannot alias each other's rules.
  const auto reference = dp::compile(cp::pipeline_for(model, repr));
  if (!reference.is_ok()) {
    err << "reference compile failed: " << reference.status().to_string()
        << "\n";
    return 1;
  }
  input.program_pair = {.left = &binding.program(),
                        .right = &reference.value(),
                        .left_name = name,
                        .right_name = name + ".reference"};

  const core::Pipeline pipeline = cp::pipeline_for(model, repr);
  input.symbolic_decomposition = {.universal = &model.universal,
                                  .pipeline = &pipeline,
                                  .name = name};

  const cp::GwlbBinding universal(model, cp::Representation::kUniversal);
  std::vector<dp::FlatRules> slices;
  std::vector<std::size_t> slice_services;
  for (std::size_t s = 0; s < model.services.size(); ++s) {
    if (model.services[s].src_prefixes.empty()) continue;
    slices.push_back(universal.entry_rules(s));
    slice_services.push_back(s);
  }
  for (std::size_t i = 0; i + 1 < slices.size(); ++i) {
    input.slices.push_back(
        {.left = &slices[i],
         .right = &slices[i + 1],
         .left_name = "service " + std::to_string(slice_services[i]),
         .right_name = "service " + std::to_string(slice_services[i + 1])});
  }

  return emit_report(analysis::run(input), opts, os);
}

/// Dumps `--metrics` to stderr and `--trace` to its file, after the
/// command has executed. A failed trace write degrades the exit code.
int dump_telemetry(const CliOptions& opts, std::ostream& err) {
  if (!opts.metrics.empty()) {
    err << (opts.metrics == "json" ? obs::render_json()
                                   : obs::render_prometheus());
  }
  if (!opts.trace_path.empty()) {
    const Status written =
        obs::write_text_file(opts.trace_path, obs::render_chrome_trace());
    if (!written.is_ok()) {
      err << "matonc: " << written.to_string() << "\n";
      return 1;
    }
  }
  return 0;
}

/// Compiles `pipeline` and runs the full analyzer suite over it; the
/// declared dependencies (when given) are checked against the first
/// stage's table instance.
int analyze_pipeline(const core::Pipeline& pipeline,
                     const core::FdSet* declared_first,
                     const CliOptions& opts, std::ostream& os,
                     std::ostream& err) {
  const auto program = dp::compile(pipeline);
  if (!program.is_ok()) {
    err << "analysis compile failed: " << program.status().to_string()
        << "\n";
    return 1;
  }
  analysis::Input input;
  input.program = &program.value();
  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    input.tables.push_back(
        {&pipeline.stage(i).table, i == 0 ? declared_first : nullptr});
  }
  return emit_report(analysis::run(input), opts, os);
}

int run_command(const CliOptions& opts, std::ostream& os,
                std::ostream& err) {
  if (opts.path.starts_with("gwlb:")) {
    return run_builtin_analyze(opts, os, err);
  }

  std::ifstream file(opts.path);
  if (!file) {
    err << "cannot open " << opts.path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto spec = core::parse_spec(buffer.str());
  if (!spec.is_ok()) {
    err << opts.path << ": " << spec.status().to_string() << "\n";
    return 1;
  }

  // Under --analyze=json only the report reaches stdout; the normal
  // command output is discarded to keep the stream machine-readable.
  std::ostringstream discarded;
  std::ostream& body = opts.analyze_report == "json" ? discarded : os;

  if (opts.command == "analyze") {
    const int rc = analyze(spec.value(), body);
    if (rc != 0 || opts.analyze_report.empty()) return rc;
    return analyze_pipeline(core::Pipeline::single(spec.value().table),
                            &spec.value().model_fds, opts, os, err);
  }
  if (opts.command == "normalize") {
    const auto pipeline = run_normalize(spec.value(), opts, body);
    if (!pipeline.is_ok()) {
      err << pipeline.status().to_string() << "\n";
      return 1;
    }
    body << pipeline.value().to_string();
    if (opts.analyze_report.empty()) return 0;
    return analyze_pipeline(pipeline.value(), nullptr, opts, os, err);
  }
  if (opts.command == "export") {
    const auto pipeline = run_normalize(spec.value(), opts, body);
    if (!pipeline.is_ok()) {
      err << pipeline.status().to_string() << "\n";
      return 1;
    }
    if (opts.format == "p4") {
      const auto p4 = exporter::to_p4(pipeline.value());
      if (!p4.is_ok()) {
        err << p4.status().to_string() << "\n";
        return 1;
      }
      body << p4.value();
    } else if (opts.format == "openflow") {
      const auto program = dp::compile(pipeline.value());
      if (!program.is_ok()) {
        err << program.status().to_string() << "\n";
        return 1;
      }
      const auto flows = exporter::to_openflow(program.value());
      if (!flows.is_ok()) {
        err << flows.status().to_string() << "\n";
        return 1;
      }
      body << flows.value();
    } else {
      err << "unknown format '" << opts.format << "'\n";
      return 2;
    }
    if (opts.analyze_report.empty()) return 0;
    return analyze_pipeline(pipeline.value(), nullptr, opts, os, err);
  }
  return usage(err);
}

int run(const std::vector<std::string>& args, std::ostream& os,
        std::ostream& err) {
  CliOptions opts;
  if (!parse_args(args, opts, err)) return usage(err);

  // Live scrape endpoint for the duration of the command (plus the
  // telemetry dump below); `--metrics-addr=...:0` picks a free port and
  // prints it, so even short runs can be scraped by a wrapper.
  obs::ExpoServer server;
  const Status served = opts.metrics_addr.empty()
                            ? obs::start_from_env(server)
                            : server.start(opts.metrics_addr);
  if (!served.is_ok() && served.code() != StatusCode::kUnimplemented) {
    err << "matonc: metrics server: " << served.to_string() << "\n";
    return 1;
  }
  if (server.running()) {
    err << "matonc: serving http://" << server.address() << "/metrics\n";
  }

  const int rc = run_command(opts, os, err);
  const int telemetry_rc = dump_telemetry(opts, err);
  return rc != 0 ? rc : telemetry_rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    return run(args, std::cout, std::cerr);
  } catch (const std::exception& e) {
    std::cerr << "matonc: " << e.what() << "\n";
    return 1;
  }
}
