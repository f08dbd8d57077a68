#include "controlplane/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <utility>

#include "analysis/symbolic/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/sorted_erase.hpp"

namespace maton::cp {

using dp::Program;
using dp::RuleUpdate;
using dp::TableSpec;
using workloads::Gwlb;
using workloads::GwlbService;

std::string to_string(const Intent& intent) {
  struct Visitor {
    std::string operator()(const MoveServicePort& i) const {
      return "move-service-port(service=" + std::to_string(i.service) +
             ", port=" + std::to_string(i.new_port) + ")";
    }
    std::string operator()(const ChangeServiceIp& i) const {
      return "change-service-ip(service=" + std::to_string(i.service) + ")";
    }
    std::string operator()(const ChangeBackend& i) const {
      return "change-backend(service=" + std::to_string(i.service) +
             ", backend=" + std::to_string(i.backend) + ")";
    }
    std::string operator()(const RemoveService& i) const {
      return "remove-service(service=" + std::to_string(i.service) + ")";
    }
  };
  return std::visit(Visitor{}, intent);
}

namespace {

constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

/// Folds `v` into the boost-style hash `h`.
constexpr void hash_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  h ^= v + kHashSeed + (h << 6) + (h >> 2);
}

/// Hashes a rule's full content.
[[nodiscard]] std::uint64_t hash_rule(const dp::RuleView& r) noexcept {
  std::uint64_t h = kHashSeed;
  const auto mix = [&h](std::uint64_t v) { hash_mix(h, v); };
  mix(r.priority);
  mix(r.goto_table.value_or(~std::uint64_t{0}));
  for (const dp::FieldMatch m : r.matches) {
    mix(dp::field_index(m.field));
    mix(m.value);
    mix(m.mask);
  }
  for (const dp::Action a : r.actions) {
    mix(a.kind == dp::Action::Kind::kOutput ? 1 : 2);
    mix(dp::field_index(a.field));
    mix(a.value);
  }
  return h;
}

/// Appends the update set turning `old_rules` into `new_rules` in table
/// `table`. Pairing semantics: each old rule consumes the *first*
/// unmatched equal new rule (the new rules are keyed by content hash and
/// sorted, so equal hashes keep new-index order and the pairing is the
/// one the original quadratic scan defined); unmatched leftovers pair up
/// as modifies in order, the remainder becomes removes then inserts.
/// O((old + new) log new).
void diff_rules(std::size_t table, const dp::FlatRules& old_rules,
                const dp::FlatRules& new_rules, detail::DiffScratch& s,
                std::vector<RuleUpdate>& out) {
  constexpr std::uint32_t kTaken = ~std::uint32_t{0};
  s.keyed.clear();
  for (std::size_t n = 0; n < new_rules.size(); ++n) {
    s.keyed.emplace_back(hash_rule(new_rules[n]),
                         static_cast<std::uint32_t>(n));
  }
  std::sort(s.keyed.begin(), s.keyed.end());
  s.removed.clear();
  for (std::size_t o = 0; o < old_rules.size(); ++o) {
    const std::uint64_t h = hash_rule(old_rules[o]);
    bool paired = false;
    for (auto it = std::lower_bound(s.keyed.begin(), s.keyed.end(),
                                    std::pair{h, std::uint32_t{0}});
         !paired && it != s.keyed.end() && it->first == h; ++it) {
      paired = it->second != kTaken && new_rules[it->second] == old_rules[o];
      if (paired) it->second = kTaken;
    }
    if (!paired) s.removed.push_back(static_cast<std::uint32_t>(o));
  }
  s.added.clear();
  for (const auto& [h, n] : s.keyed) {
    if (n != kTaken) s.added.push_back(n);
  }
  std::sort(s.added.begin(), s.added.end());

  const std::size_t modifies = std::min(s.removed.size(), s.added.size());
  for (std::size_t i = 0; i < std::max(s.removed.size(), s.added.size());
       ++i) {
    RuleUpdate& u = out.emplace_back();
    u.kind = i < modifies             ? RuleUpdate::Kind::kModify
             : i < s.removed.size() ? RuleUpdate::Kind::kRemove
                                    : RuleUpdate::Kind::kInsert;
    u.table = table;
    if (i < s.removed.size()) u.target = old_rules[s.removed[i]].matches;
    if (i < s.added.size()) u.rule = new_rules[s.added[i]];
  }
}

using PhaseClock = std::chrono::steady_clock;

/// Starts a phase timer (no clock read when metrics are compiled out).
[[nodiscard]] PhaseClock::time_point phase_start() noexcept {
  if constexpr (obs::kEnabled) return PhaseClock::now();
  return {};
}

/// Records the ns elapsed since `start` into `phase`.
void phase_end(obs::Histogram& phase, PhaseClock::time_point start) noexcept {
  if constexpr (obs::kEnabled) {
    phase.observe(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            PhaseClock::now() - start)
            .count()));
  }
}

/// Each descriptor stage's column → field assignment under `fields`, or
/// why it does not resolve.
std::vector<Result<std::vector<dp::FieldId>>> resolve_stages(
    const RepresentationDescriptor& desc, const dp::FieldMap& fields) {
  std::vector<Result<std::vector<dp::FieldId>>> out;
  out.reserve(desc.stages.size());
  for (const StageDescriptor& sd : desc.stages) {
    out.push_back(dp::resolve_columns(sd.schema, fields));
  }
  return out;
}

/// placed[e] = the position row e of `rows` (emission order) takes in
/// dp::compile's order of a stage's rules: priority descending, emission
/// order among equals.
void priority_places(const dp::FlatRules& rows,
                     std::vector<std::uint32_t>& placed) {
  std::vector<std::uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&rows](std::uint32_t a, std::uint32_t b) {
                     return rows.priority_of(a) > rows.priority_of(b);
                   });
  placed.resize(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    placed[order[i]] = static_cast<std::uint32_t>(i);
  }
}

/// The order-independence check of a reference table: two rows with one
/// match vector are a contract violation.
void check_reference_keys(const dp::FlatRules& table) {
  expects(!table.has_duplicate_matches(),
          "symbolic verify: reference table has duplicate match keys");
}

}  // namespace

std::vector<RuleUpdate> diff_programs(const Program& before,
                                      const Program& after) {
  expects(before.tables.size() == after.tables.size(),
          "representation rebuild changed the table count");
  detail::DiffScratch scratch;
  std::vector<RuleUpdate> updates;
  for (std::size_t t = 0; t < before.tables.size(); ++t) {
    diff_rules(t, before.tables[t].rules, after.tables[t].rules, scratch,
               updates);
  }
  return updates;
}

GwlbBinding::GwlbBinding(Gwlb gwlb, Representation repr, CompileMode mode,
                         AnalyzeMode analyze, VerifyMode verify)
    : gwlb_(std::move(gwlb)),
      repr_(repr),
      mode_(mode),
      verify_(verify),
      analyze_(analyze) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  // Labels in Intent's variant order.
  constexpr std::array<const char*, std::variant_size_v<Intent>> kIntents = {
      "port", "ip", "backend", "remove"};
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const auto phase = [&](const char* name) {
      return &registry.histogram(
          "maton_cp_intent_phase_ns",
          {{"phase", name},
           {"intent", kIntents[i]},
           {"repr", std::string(to_string(repr_))}});
    };
    phases_[i] = {phase("delta"), phase("refresh"), phase("prove")};
  }
  patches_.resize(descriptor(repr_).stages.size());
  const Status built = rebuild_program();
  expects(built.is_ok(), "gwlb program failed to compile: " + built.message());
  if (analyze_ == AnalyzeMode::kPostCompile) run_post_compile_analysis();
  if (verify_ == VerifyMode::kSymbolic) {
    auto reference =
        dp::compile(pipeline_for(gwlb_, repr_), &reference_fields_);
    expects(reference.is_ok(),
            "symbolic verify: reference pipeline failed to lower");
    reference_ = std::move(reference).value();
    reference_stage_fields_ = resolve_stages(descriptor(repr_),
                                             reference_fields_);
    reference_rows_.resize(descriptor(repr_).stages.size());
    // Per-service tables need no row map: each holds one service's rows.
    for (std::size_t k = 0; k < reference_rows_.size(); ++k) {
      expects(reference_stage_fields_[k].is_ok(),
              "symbolic verify: reference table failed to lower");
      if (!descriptor(repr_).stages[k].per_service) rebuild_reference_stage(k);
    }
    prover_.emplace();
    run_post_compile_verify(std::nullopt);
  }
}

void GwlbBinding::run_post_compile_analysis() {
  analysis::Input input;
  input.program = &program_;
  // Declared dependencies the instance must honor: the service model's
  // FDs (ip_dst → tcp_dst for gwlb).
  input.tables.push_back({&gwlb_.universal, &gwlb_.model_fds});

  const core::Schema& schema = gwlb_.universal.schema();
  // The lossless-join proof may additionally use the key dependency the
  // match columns carry by construction (order independence).
  core::FdSet join_fds = gwlb_.model_fds;
  join_fds.add(schema.match_set(), schema.all());
  analysis::Input::DecompositionCheck decomposition;
  decomposition.schema = &schema;
  decomposition.fds = &join_fds;
  decomposition.components = decomposition_components(repr_, schema);
  decomposition.name = "gwlb." + std::string(to_string(repr_));
  input.decomposition = std::move(decomposition);

  analysis::Options options;
  // Warning severity keeps the post-compile hook cheap: the info-only
  // NF-status lints (which would re-mine instance FDs on every intent)
  // are skipped, and a healthy compile yields an empty report.
  options.min_severity = analysis::Severity::kWarning;
  last_analysis_ = analysis::run(input, options);

  static obs::Counter& clean = obs::MetricRegistry::global().counter(
      "maton_cp_analysis_clean_total");
  static obs::Counter& findings = obs::MetricRegistry::global().counter(
      "maton_cp_analysis_findings_total");
  if (last_analysis_.clean(analysis::Severity::kWarning)) {
    clean.add();
  } else {
    findings.add();
  }
}

void GwlbBinding::lower_rows(std::size_t stage,
                             std::span<const dp::FieldId> fields,
                             const GwlbService& svc, std::size_t s,
                             dp::FlatRules& out) const {
  const StageDescriptor& sd = descriptor(repr_).stages[stage];
  dp::Rule lowered;
  lowered.goto_table = goto_of(stage, s);
  for_each_row(sd, svc, s, [&](std::span<const core::Value> row) {
    dp::lower_row(sd.schema, row, fields, lowered);
    out.push_back(lowered);
  });
}

void GwlbBinding::rebuild_reference_stage(std::size_t stage) {
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  ReferenceRows& rows = reference_rows_[stage];
  const auto& fields = reference_stage_fields_[stage].value();
  TableSpec& spec = reference_.tables[desc.table_of(stage, 0, n)];
  spec.name = desc.stages[stage].name;  // re-lowered
  dp::FlatRules& table = spec.rules;
  rows.begin.assign(1, 0);
  table.clear();
  for (std::size_t s = 0; s < n; ++s) {
    lower_rows(stage, fields, gwlb_.services[s], s, table);
    rows.begin.push_back(static_cast<std::uint32_t>(table.size()));
  }
  priority_places(table, rows.placed);
  table.stable_sort_by_priority();
  check_reference_keys(table);
}

void GwlbBinding::refresh_reference(std::size_t service) {
  // Each of the service's rows lives in one table per stage, so only
  // those tables can differ from the last proof's reference, and in them
  // only the service's rows. Those are re-emitted from the service model
  // and lowered the way the full compile lowers them, and written over
  // the rows they replace; nothing is read back from program_. A row the
  // intent left as it was is not rewritten, so a table whose rows all
  // stayed keeps its revision and the prover reuses its diagram without
  // keying it.
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  for (std::size_t k = 0; k < desc.stages.size(); ++k) {
    const StageDescriptor& sd = desc.stages[k];
    TableSpec& spec = reference_.tables[desc.table_of(k, service, n)];
    dp::FlatRules& table = spec.rules;
    slice_.clear();
    lower_rows(k, reference_stage_fields_[k].value(),
               gwlb_.services[service], service, slice_);
    if (sd.per_service) {
      // The table holds the service's rows alone.
      slice_.stable_sort_by_priority();
      if (!(slice_ == table)) {
        table = slice_;
        spec.name = sd.name;  // re-lowered
        spec.name += std::to_string(service);
      }
      check_reference_keys(table);
      continue;
    }
    // Rows that keep their count and priorities keep their places in the
    // priority order; any other change re-sorts the table.
    const ReferenceRows& rows = reference_rows_[k];
    const std::size_t first = rows.begin[service];
    const std::size_t count = rows.begin[service + 1] - first;
    bool same_shape = slice_.size() == count;
    for (std::size_t i = 0; same_shape && i < count; ++i) {
      same_shape =
          slice_.priority_of(i) == table.priority_of(rows.placed[first + i]);
    }
    if (!same_shape) {
      rebuild_reference_stage(k);
      continue;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t pos = rows.placed[first + i];
      if (table[pos] == slice_[i]) continue;
      table.replace(pos, slice_[i]);
      spec.name = sd.name;  // re-lowered
    }
    check_reference_keys(table);
  }
}

void GwlbBinding::run_post_compile_verify(
    std::optional<std::size_t> touched, const PhaseHistograms* phases) {
  const obs::TraceSpan span("symbolic_verify");
  // Prove the live (possibly patched-in-place) program equivalent to the
  // reference. A bit-identical program passes trivially; the point is
  // that even a bit-different-but-semantically-equal patch verifies, and
  // any drift surfaces as a refutation with a concrete counterexample
  // packet. The prover keeps its store across intents, so only the
  // tables whose content changed since the last proof are folded again.
  if (touched.has_value()) {
    const PhaseClock::time_point refresh_start = phase_start();
    refresh_reference(*touched);
    if (phases != nullptr) phase_end(*phases->refresh, refresh_start);
  }
  const PhaseClock::time_point prove_start = phase_start();
  const auto result = prover_->check(program_, reference_);
  if (phases != nullptr) phase_end(*phases->prove, prove_start);
  verify_stats_.table_hits += result.stats.table_hits;
  verify_stats_.table_misses += result.stats.table_misses;
  verify_stats_.tables_keyed += result.stats.tables_keyed;
  static obs::Counter& verified = obs::MetricRegistry::global().counter(
      "maton_cp_symbolic_verified_total");
  static obs::Counter& failed = obs::MetricRegistry::global().counter(
      "maton_cp_symbolic_failed_total");
  static obs::Counter& unknown = obs::MetricRegistry::global().counter(
      "maton_cp_symbolic_unknown_total");
  switch (result.outcome) {
    case analysis::symbolic::Outcome::kEquivalent:
      ++verify_stats_.verified;
      verified.add();
      break;
    case analysis::symbolic::Outcome::kInequivalent:
      ++verify_stats_.failed;
      failed.add();
      last_verify_note_ = result.counterexample.has_value()
                              ? result.counterexample->description
                              : "inequivalent (no counterexample)";
      break;
    case analysis::symbolic::Outcome::kUnknown:
      ++verify_stats_.unknown;
      unknown.add();
      last_verify_note_ = result.note;
      break;
  }
}

const core::FdSet& GwlbBinding::mined_fds() {
  if (!mined_.has_value()) {
    static obs::Counter& remines =
        obs::MetricRegistry::global().counter("maton_cp_remines_total");
    const obs::TraceSpan span("fd_re_mine");
    mined_ = core::mine_fds_tane(gwlb_.universal, {.cache = &mine_cache_});
    remines.add();
  }
  return *mined_;
}

void GwlbBinding::rebuild_universal() {
  mined_.reset();  // the universal table is about to change
  core::Table universal("gwlb.universal", gwlb_.universal.schema());
  for (const GwlbService& svc : gwlb_.services) {
    for (std::size_t b = 0; b < svc.src_prefixes.size(); ++b) {
      universal.add_row(workloads::gwlb_universal_row(svc, b));
    }
  }
  gwlb_.universal = std::move(universal);
}

Status GwlbBinding::rebuild_program() {
  // Rebuild the universal table from the service model first (the
  // decomposed stages read services directly).
  rebuild_universal();
  auto compiled = dp::compile(pipeline_for(gwlb_, repr_), &field_map_);
  if (!compiled.is_ok()) return compiled.status();
  program_ = std::move(compiled).value();
  stage_fields_ = resolve_stages(descriptor(repr_), field_map_);
  rebuild_provenance();
  rebuild_indexes();
  return Status::ok();
}

void GwlbBinding::rebuild_provenance() {
  // Read each table's rows through the stage reader the way pipeline_for
  // does (every service's, in service order, for a shared stage; its own
  // service's for a per-service one), lowered straight into flat storage
  // next to the service, and stable-sort that order by priority:
  // dp::compile sorts the same rows the same way (per-slice pre-sorting
  // commutes with it), so the result must reproduce the compiled table
  // exactly. This doubles as the cross-check that the delta path's slices
  // cannot drift from the pipeline builder. The provenance vectors are
  // sized before the scratch exists, so the two do not interleave on the
  // heap, and one table's scratch is reused for the next.
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  provenance_.resize(program_.tables.size());
  for (std::size_t t = 0; t < program_.tables.size(); ++t) {
    provenance_[t].assign(program_.tables[t].rules.size(), 0);
  }
  dp::FlatRules emitted;
  std::vector<std::uint32_t> emitted_by;
  std::vector<std::uint32_t> placed;
  for (std::size_t k = 0; k < desc.stages.size(); ++k) {
    const StageDescriptor& sd = desc.stages[k];
    const std::size_t matches = sd.schema.match_set().size();
    const std::size_t actions = sd.schema.action_set().size();
    const auto& fields = stage_fields_[k];
    expects(fields.is_ok(),
            "service slice failed to lower: " + fields.status().message());
    for (std::size_t c = 0; c < (sd.per_service ? n : 1); ++c) {
      const std::size_t t = desc.table_of(k, c, n);
      const dp::FlatRules& rules = program_.tables[t].rules;
      emitted.clear();
      emitted.reserve(rules.size(), rules.size() * matches,
                      rules.size() * actions);
      emitted_by.clear();
      const std::size_t first = sd.per_service ? c : 0;
      const std::size_t last = sd.per_service ? c + 1 : n;
      for (std::size_t s = first; s < last; ++s) {
        lower_rows(k, fields.value(), gwlb_.services[s], s, emitted);
        emitted_by.resize(emitted.size(), static_cast<std::uint32_t>(s));
      }
      expects(emitted.size() == rules.size(),
              "provenance drift: stage rows disagree with compiled program");
      priority_places(emitted, placed);
      for (std::size_t e = 0; e < emitted.size(); ++e) {
        expects(emitted[e] == rules[placed[e]],
                "provenance drift: stage rows disagree with compiled program");
        provenance_[t][placed[e]] = emitted_by[e];
      }
    }
  }
}

void GwlbBinding::rebuild_indexes() {
  slice_index_.assign(program_.tables.size(), {});
  slice_removals_.assign(program_.tables.size(), {});
  for (std::size_t t = 0; t < program_.tables.size(); ++t) {
    rebuild_slice_index(t);
  }
  row_offsets_.assign(gwlb_.services.size(), 0);
  std::size_t offset = 0;
  for (std::size_t s = 0; s < gwlb_.services.size(); ++s) {
    row_offsets_[s] = offset;
    offset += gwlb_.services[s].src_prefixes.size();
  }
  vip_services_.clear();
  for (std::size_t s = 0; s < gwlb_.services.size(); ++s) {
    if (!gwlb_.services[s].src_prefixes.empty()) {
      vip_add(gwlb_.services[s].vip, s);
    }
  }
}

void GwlbBinding::rebuild_slice_index(std::size_t table) {
  auto& index = slice_index_[table];
  index.clear();
  const std::vector<std::uint32_t>& prov = provenance_[table];
  for (std::size_t i = 0; i < prov.size(); ++i) {
    index[prov[i]].push_back(static_cast<std::uint32_t>(i));
  }
  slice_removals_[table] = util::BuildPositions(prov.size());
}

void GwlbBinding::slice_positions(std::size_t table, std::size_t service,
                                  std::vector<std::uint32_t>& out) const {
  out.clear();
  const auto& index = slice_index_[table];
  const auto it = index.find(static_cast<std::uint32_t>(service));
  if (it == index.end()) return;
  const util::BuildPositions& removals = slice_removals_[table];
  for (const std::uint32_t build : it->second) {
    out.push_back(static_cast<std::uint32_t>(removals.live(build)));
  }
}

void GwlbBinding::erase_slice(std::size_t table, std::size_t service,
                              const std::vector<std::uint32_t>& positions) {
  const std::vector<std::size_t> erased(positions.begin(), positions.end());
  program_.tables[table].rules.erase(erased);
  std::vector<std::uint32_t>& prov = provenance_[table];
  prov.resize(erase_sorted(prov.size(), erased,
                           [&](std::size_t from, std::size_t to) {
                             prov[to] = prov[from];
                           }));
  // The survivors keep their build positions: the removal map records
  // the service's, unless that passes its share and the table's index
  // is rebuilt instead.
  util::BuildPositions& removals = slice_removals_[table];
  if (!removals.can_remove(positions.size())) {
    rebuild_slice_index(table);
    return;
  }
  auto& index = slice_index_[table];
  const auto it = index.find(static_cast<std::uint32_t>(service));
  expects(it != index.end() && it->second.size() == positions.size(),
          "erased slice is not the indexed one");
  removals.remove(std::span<const std::uint32_t>(it->second));
  index.erase(it);
}

void GwlbBinding::vip_add(std::uint32_t vip, std::size_t service) {
  vip_services_[vip].push_back(static_cast<std::uint32_t>(service));
}

void GwlbBinding::vip_remove(std::uint32_t vip, std::size_t service) {
  const auto it = vip_services_.find(vip);
  if (it == vip_services_.end()) return;
  auto& services = it->second;
  const auto pos = std::find(services.begin(), services.end(),
                             static_cast<std::uint32_t>(service));
  if (pos != services.end()) services.erase(pos);
  if (services.empty()) vip_services_.erase(it);
}

void GwlbBinding::service_slice(std::size_t stage, const GwlbService& svc,
                                std::size_t s, dp::FlatRules& out) const {
  out.clear();
  lower_rows(stage, stage_fields_[stage].value(), svc, s, out);
  out.stable_sort_by_priority();
}

std::optional<std::size_t> GwlbBinding::goto_of(std::size_t stage,
                                                std::size_t s) const {
  const RepresentationDescriptor& desc = descriptor(repr_);
  if (desc.stages[stage].link != StageLink::kGotoPerService) {
    return std::nullopt;
  }
  return desc.table_of(stage + 1, s, gwlb_.services.size());
}

std::optional<std::vector<RuleUpdate>> GwlbBinding::try_compile_incremental(
    std::size_t service, const GwlbService& old_svc) {
  const obs::TraceSpan span("compile_incremental");

  const GwlbService& svc = gwlb_.services[service];
  const bool old_live = !old_svc.src_prefixes.empty();
  const bool new_live = !svc.src_prefixes.empty();
  const auto fall_back = [this](FallbackCause cause) {
    last_fallback_cause_ = cause;
    return std::nullopt;
  };
  // One patch per stage, in ascending table order: the order the
  // reference diff uses.
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  for (std::size_t stage = 0; stage < desc.stages.size(); ++stage) {
    Patch& patch = patches_[stage];
    patch.table = desc.table_of(stage, service, n);
    const dp::FlatRules& rules = program_.tables[patch.table].rules;
    slice_positions(patch.table, service, patch.positions);
    patch.before.clear();
    for (const std::uint32_t pos : patch.positions) {
      patch.before.push_back(rules[pos]);
    }
    // Validation: the slice extracted from the live program must equal
    // what the descriptor emits for the pre-intent service state. A
    // mismatch means provenance drifted — fall back, nothing mutated.
    service_slice(stage, old_svc, service, slice_);
    if (!(slice_ == patch.before)) {
      return fall_back(FallbackCause::kSliceValidation);
    }
    service_slice(stage, svc, service, patch.after);
    // Same shape = same size and per-index priorities: the global stable
    // order then keeps every slice rule at its old position, so the
    // patch can rewrite those rows in place. A lowered row's priority is
    // the popcount of its masks and only a removal changes a service's
    // prefixes, so every patch is same-shape or empty; any other would
    // have to move rows across the table, and falls back.
    bool same_shape = patch.after.size() == patch.before.size();
    for (std::size_t i = 0; same_shape && i < patch.after.size(); ++i) {
      same_shape = patch.after.priority_of(i) == patch.before.priority_of(i);
    }
    if (!same_shape && !patch.after.empty()) {
      return fall_back(FallbackCause::kSliceValidation);
    }
  }

  // Slice-local diffing identifies rules by content, so another live
  // service sharing this one's VIP (pre- or post-intent) could in
  // principle alias rules across slices. Rather than demoting every
  // collision to a full rebuild, prove isolation: if the symbolic engine
  // shows this service's slice region (before ∪ after) disjoint from each
  // colliding partner's slice in every affected table, no packet can hit
  // rules of both and the slice-local diff stays unambiguous. Only a
  // possible intersection falls back.
  partners_.clear();
  const auto collect_partners = [&](std::uint32_t vip) {
    const auto it = vip_services_.find(vip);
    if (it == vip_services_.end()) return;
    for (const std::uint32_t p : it->second) {
      if (p != static_cast<std::uint32_t>(service) &&
          std::find(partners_.begin(), partners_.end(), p) ==
              partners_.end()) {
        partners_.push_back(p);
      }
    }
  };
  if (old_live) collect_partners(old_svc.vip);
  if (new_live) collect_partners(svc.vip);
  if (!partners_.empty()) {
    const obs::TraceSpan isolation_span("slice_isolation_proof");
    for (std::size_t stage = 0; stage < desc.stages.size(); ++stage) {
      const Patch& patch = patches_[stage];
      for (const std::uint32_t p : partners_) {
        // A partner with its own table in this stage holds no rules in
        // this one: trivially disjoint.
        if (desc.table_of(stage, p, n) != patch.table) continue;
        service_slice(stage, gwlb_.services[p], p, slice_);
        // The service's rules before and after the intent are both
        // live while the updates apply.
        if (analysis::symbolic::slices_relation(patch.before, slice_) !=
                analysis::symbolic::SliceRelation::kDisjoint ||
            analysis::symbolic::slices_relation(patch.after, slice_) !=
                analysis::symbolic::SliceRelation::kDisjoint) {
          return fall_back(FallbackCause::kVipCollision);
        }
      }
    }
  }

  // Validation passed — mutate. First the universal table, cell-wise, so
  // untouched columns keep their partition-cache fingerprints across the
  // FD re-mine. The cached row offset replaces the O(service) prefix
  // scan; offsets stay valid while slice shapes do.
  const std::size_t offset = row_offsets_[service];
  if (old_live != new_live || old_svc.vip != svc.vip) {
    if (old_live) vip_remove(old_svc.vip, service);
    if (new_live) vip_add(svc.vip, service);
  }
  if (svc.src_prefixes.size() != old_svc.src_prefixes.size()) {
    std::size_t off = offset + svc.src_prefixes.size();
    for (std::size_t s = service + 1; s < gwlb_.services.size(); ++s) {
      row_offsets_[s] = off;
      off += gwlb_.services[s].src_prefixes.size();
    }
  }
  if (svc.src_prefixes.empty()) {
    gwlb_.universal.erase_rows(offset, old_svc.src_prefixes.size());
  } else {
    for (std::size_t b = 0; b < svc.src_prefixes.size(); ++b) {
      if (svc.vip != old_svc.vip) {
        gwlb_.universal.set_value(offset + b, workloads::kGwlbIpDst,
                                  svc.vip);
      }
      if (svc.port != old_svc.port) {
        gwlb_.universal.set_value(offset + b, workloads::kGwlbTcpDst,
                                  svc.port);
      }
      if (svc.backends[b] != old_svc.backends[b]) {
        gwlb_.universal.set_value(offset + b, workloads::kGwlbOut,
                                  svc.backends[b]);
      }
    }
  }
  mined_.reset();

  // Then the program: per touched table (ascending), diff the slice and
  // patch it. A same-shape slice is rewritten in place — O(slice) with
  // provenance, the slice index, and every other row untouched. A slice
  // that is gone (RemoveService) is erased in place: the survivors keep
  // their order, so one pass each over the rules, provenance and the
  // slice index drops it. Either way the patched program stays
  // bit-identical to a rebuild. The updates own their rules; sized for
  // one per rule on each patch's larger side, they allocate once.
  std::size_t most_updates = 0;
  for (const Patch& patch : patches_) {
    most_updates += std::max(patch.before.size(), patch.after.size());
  }
  std::vector<RuleUpdate> updates;
  updates.reserve(most_updates);
  for (const Patch& patch : patches_) {
    {
      const obs::TraceSpan diff_span("rule_diff");
      diff_rules(patch.table, patch.before, patch.after, diff_, updates);
    }
    if (patch.before == patch.after) continue;  // untouched slice

    const obs::TraceSpan merge_span("slice_merge");
    if (patch.after.empty()) {
      erase_slice(patch.table, service, patch.positions);
      continue;
    }
    dp::FlatRules& rules = program_.tables[patch.table].rules;
    for (std::size_t k = 0; k < patch.positions.size(); ++k) {
      rules.replace(patch.positions[k], patch.after[k]);
    }
  }
  return updates;
}

Result<std::vector<RuleUpdate>> GwlbBinding::compile_intent(
    const Intent& intent) {
  const std::size_t service = std::visit(
      [](const auto& i) { return i.service; }, intent);
  if (service >= gwlb_.services.size()) {
    return invalid_argument("intent names a non-existent service");
  }
  GwlbService& svc = gwlb_.services[service];
  if (svc.src_prefixes.empty()) {
    return failed_precondition("intent targets a removed service");
  }
  if (const auto* backend = std::get_if<ChangeBackend>(&intent)) {
    if (backend->backend >= svc.backends.size()) {
      return invalid_argument("intent names a non-existent backend");
    }
  }

  old_svc_ = svc;
  const GwlbService& old_svc = old_svc_;
  if (const auto* move = std::get_if<MoveServicePort>(&intent)) {
    svc.port = move->new_port;
  } else if (const auto* reip = std::get_if<ChangeServiceIp>(&intent)) {
    svc.vip = reip->new_vip;
  } else if (const auto* backend = std::get_if<ChangeBackend>(&intent)) {
    svc.backends[backend->backend] = backend->new_out;
  } else if (std::get_if<RemoveService>(&intent) != nullptr) {
    svc.src_prefixes.clear();
    svc.backends.clear();
  }

  const PhaseHistograms& phases = phases_[intent.index()];
  const PhaseClock::time_point delta_start = phase_start();
  if (mode_ == CompileMode::kIncremental) {
    static obs::Counter& hits = obs::MetricRegistry::global().counter(
        "maton_cp_incremental_hits_total");
    static obs::Counter& vip_fallbacks =
        obs::MetricRegistry::global().counter(
            "maton_cp_incremental_fallbacks_total",
            {{"cause", "vip_collision"}});
    static obs::Counter& slice_fallbacks =
        obs::MetricRegistry::global().counter(
            "maton_cp_incremental_fallbacks_total",
            {{"cause", "slice_validation"}});
    if (auto updates = try_compile_incremental(service, old_svc)) {
      phase_end(*phases.delta, delta_start);
      ++inc_stats_.hits;
      hits.add();
      if (analyze_ == AnalyzeMode::kPostCompile) run_post_compile_analysis();
      if (verify_ == VerifyMode::kSymbolic) {
        run_post_compile_verify(service, &phases);
      }
      return std::move(*updates);
    }
    ++inc_stats_.fallbacks;
    if (last_fallback_cause_ == FallbackCause::kVipCollision) {
      ++inc_stats_.vip_collision_fallbacks;
      vip_fallbacks.add();
    } else {
      ++inc_stats_.slice_validation_fallbacks;
      slice_fallbacks.add();
    }
  }

  std::vector<RuleUpdate> updates;
  {
    const obs::TraceSpan span("compile");
    Program before = std::move(program_);
    if (Status built = rebuild_program(); !built.is_ok()) {
      // The representation cannot express the new model (rematch with
      // two services on one VIP lowers to duplicate match keys): restore
      // the model, its universal table and the program, and let the
      // caller see why the intent cannot land.
      svc = old_svc;
      rebuild_universal();
      program_ = std::move(before);
      return built;
    }
    const obs::TraceSpan diff_span("rule_diff");
    updates = diff_programs(before, program_);
  }
  phase_end(*phases.delta, delta_start);
  if (analyze_ == AnalyzeMode::kPostCompile) run_post_compile_analysis();
  if (verify_ == VerifyMode::kSymbolic) {
    run_post_compile_verify(service, &phases);
  }
  return updates;
}

MonitorPlan GwlbBinding::monitor_plan(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  // All of the service's traffic passes its entries in the entry stage:
  // one counter each, summed in the controller.
  const std::size_t counters =
      row_count(descriptor(repr_).stages.front(), gwlb_.services[service]);
  return {counters, std::max<std::size_t>(counters, 1) - 1};
}

dp::FlatRules GwlbBinding::entry_rules(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  std::vector<std::uint32_t> positions;
  slice_positions(program_.entry, service, positions);
  dp::FlatRules rules;
  for (const std::uint32_t pos : positions) {
    rules.push_back(program_.tables[program_.entry].rules[pos]);
  }
  return rules;
}

std::size_t GwlbBinding::identity_entries(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  std::size_t entries = 0;
  for (const StageDescriptor& stage : descriptor(repr_).stages) {
    if (std::ranges::find(stage.cells, workloads::kGwlbIpDst) !=
        stage.cells.end()) {
      entries += row_count(stage, gwlb_.services[service]);
    }
  }
  return entries;
}

}  // namespace maton::cp
