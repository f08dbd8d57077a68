#include "controlplane/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <span>
#include <unordered_map>
#include <utility>

#include "analysis/symbolic/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/sorted_erase.hpp"

namespace maton::cp {

using dp::Program;
using dp::Rule;
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

/// Hashes a rule's full content; `RuleT` is dp::Rule or dp::RuleView, so
/// flattened tables hash without materializing boundary Rules.
template <typename RuleT>
[[nodiscard]] std::uint64_t hash_rule(const RuleT& r) noexcept {
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
/// unmatched equal new rule (hash buckets keep new-index order, so the
/// pairing is the one the original quadratic scan defined); unmatched
/// leftovers pair up as modifies in order, the remainder becomes removes
/// then inserts. O(old + new) expected. The sequences are any types
/// indexable to rules comparable across each other (dp::FlatRules,
/// std::vector<dp::Rule>).
template <typename OldSeq, typename NewSeq>
void diff_rules(std::size_t table, const OldSeq& old_rules,
                const NewSeq& new_rules,
                std::vector<RuleUpdate>& out) {
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> buckets;
  buckets.reserve(new_rules.size());
  for (std::size_t n = 0; n < new_rules.size(); ++n) {
    buckets[hash_rule(new_rules[n])].push_back(
        static_cast<std::uint32_t>(n));
  }
  std::vector<char> matched(new_rules.size(), 0);
  std::vector<std::uint32_t> removed;
  for (std::size_t o = 0; o < old_rules.size(); ++o) {
    bool found = false;
    if (const auto it = buckets.find(hash_rule(old_rules[o]));
        it != buckets.end()) {
      for (const std::uint32_t n : it->second) {
        if (!matched[n] && new_rules[n] == old_rules[o]) {
          matched[n] = 1;
          found = true;
          break;
        }
      }
    }
    if (!found) removed.push_back(static_cast<std::uint32_t>(o));
  }
  std::vector<std::uint32_t> added;
  for (std::size_t n = 0; n < new_rules.size(); ++n) {
    if (!matched[n]) added.push_back(static_cast<std::uint32_t>(n));
  }

  const std::size_t modifies = std::min(removed.size(), added.size());
  for (std::size_t i = 0; i < modifies; ++i) {
    RuleUpdate u;
    u.kind = RuleUpdate::Kind::kModify;
    u.table = table;
    u.target = old_rules[removed[i]].matches;
    u.rule = new_rules[added[i]];
    out.push_back(std::move(u));
  }
  for (std::size_t i = modifies; i < removed.size(); ++i) {
    RuleUpdate u;
    u.kind = RuleUpdate::Kind::kRemove;
    u.table = table;
    u.target = old_rules[removed[i]].matches;
    out.push_back(std::move(u));
  }
  for (std::size_t i = modifies; i < added.size(); ++i) {
    RuleUpdate u;
    u.kind = RuleUpdate::Kind::kInsert;
    u.table = table;
    u.rule = new_rules[added[i]];
    out.push_back(std::move(u));
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

void sort_slice(std::vector<Rule>& rules) {
  // The compiler's table order: priority descending, emission order
  // among equals (stable).
  std::stable_sort(rules.begin(), rules.end(),
                   [](const Rule& a, const Rule& b) {
                     return a.priority > b.priority;
                   });
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

}  // namespace

std::vector<RuleUpdate> diff_programs(const Program& before,
                                      const Program& after) {
  expects(before.tables.size() == after.tables.size(),
          "representation rebuild changed the table count");
  std::vector<RuleUpdate> updates;
  for (std::size_t t = 0; t < before.tables.size(); ++t) {
    diff_rules(t, before.tables[t].rules, after.tables[t].rules, updates);
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
    init_reference_rows();
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

std::size_t GwlbBinding::MatchKeyHash::operator()(
    const StageRow& key) const noexcept {
  std::uint64_t h = kHashSeed;
  for (const core::Value v : key) hash_mix(h, v);
  return static_cast<std::size_t>(h);
}

void GwlbBinding::init_reference_rows() {
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  reference_rows_.assign(desc.stages.size(), {});
  for (std::size_t k = 0; k < desc.stages.size(); ++k) {
    ReferenceRows& stage = reference_rows_[k];
    const bool per_service = desc.stages[k].per_service;
    stage.rules.resize(per_service ? 1 : n);
    stage.keys.resize(per_service ? 1 : n);
    // A per-service stage's slot is filled by its first refresh.
    if (per_service) continue;
    for (std::size_t s = 0; s < n; ++s) lower_reference_rows(k, s);
  }
}

bool GwlbBinding::lower_reference_rows(std::size_t stage,
                                       std::size_t service) {
  const RepresentationDescriptor& desc = descriptor(repr_);
  const StageDescriptor& sd = desc.stages[stage];
  ReferenceRows& rows = reference_rows_[stage];
  const std::size_t slot = sd.per_service ? 0 : service;
  if (sd.per_service) {
    rows.key_count.clear();  // the table holds this service's rows alone
  } else {
    for (const StageRow& key : rows.keys[slot]) {
      const auto it = rows.key_count.find(key);
      if (--it->second == 0) rows.key_count.erase(it);
    }
  }
  // The slot's previous rows, kept to tell whether the service's rows
  // moved.
  std::vector<Rule>& lowered_rows = rows.rules[slot];
  previous_rows_.swap(lowered_rows);
  lowered_rows.clear();
  rows.keys[slot].clear();
  const auto& fields = reference_stage_fields_[stage];
  expects(fields.is_ok(), "symbolic verify: reference table failed to lower");
  const std::optional<std::size_t> goto_target = goto_of(stage, service);
  dp::LoweredRow lowered;
  for_each_row(sd, gwlb_.services[service], service,
               [&](std::span<const core::Value> row) {
                 // The match cells, packed first; the rest stay zero.
                 StageRow key{};
                 std::size_t i = 0;
                 for (const std::size_t c : sd.schema.match_set()) {
                   key[i++] = row[c];
                 }
                 expects(++rows.key_count[key] == 1,
                         "symbolic verify: reference table has duplicate "
                         "match keys");
                 dp::lower_row(sd.schema, row, fields.value(), lowered);
                 lowered_rows.push_back(lowered.to_rule(goto_target));
                 rows.keys[slot].push_back(key);
               });
  return sd.per_service || lowered_rows != previous_rows_;
}

void GwlbBinding::refresh_reference(std::size_t service) {
  // Each of the service's rows lives in one table per stage, so only
  // those tables can differ from the last proof's reference, and in them
  // only the service's rows. Those are re-emitted from the service model
  // and lowered the way the full compile lowers them; the table is
  // reassembled from them and the other services' rows as the last
  // refresh lowered them, in service order, then stable-sorted by
  // priority as dp::compile sorts a stage. Nothing is read back from
  // program_. A table the service's rows leave as it was is not
  // reassembled, so it keeps its revision and the prover reuses its
  // diagram without keying it.
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  for (std::size_t k = 0; k < desc.stages.size(); ++k) {
    if (!lower_reference_rows(k, service)) continue;
    const StageDescriptor& sd = desc.stages[k];
    const std::vector<std::vector<Rule>>& slots = reference_rows_[k].rules;
    std::size_t count = 0;
    for (const std::vector<Rule>& rules : slots) count += rules.size();
    dp::FlatRules assembled;
    assembled.reserve(count);
    for (const std::vector<Rule>& rules : slots) {
      for (const Rule& rule : rules) assembled.push_back(rule);
    }
    assembled.stable_sort_by_priority();
    TableSpec& table = reference_.tables[desc.table_of(k, service, n)];
    // A per-service table holds the service's rows alone: compare them
    // whole (its slot may have held another service's rows).
    if (sd.per_service && assembled == table.rules) continue;
    table.name = sd.name;
    if (sd.per_service) table.name += std::to_string(service);
    table.rules = std::move(assembled);
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
  std::vector<std::uint32_t> order;
  dp::LoweredRow lowered;
  for (std::size_t k = 0; k < desc.stages.size(); ++k) {
    const StageDescriptor& sd = desc.stages[k];
    const std::size_t matches = sd.schema.match_set().size();
    const std::size_t actions = sd.schema.action_set().size();
    for (std::size_t c = 0; c < (sd.per_service ? n : 1); ++c) {
      const auto& fields = stage_fields_[k];
      expects(fields.is_ok(), "service slice failed to lower: " +
                                  fields.status().message());
      const std::size_t t = desc.table_of(k, c, n);
      const dp::FlatRules& rules = program_.tables[t].rules;
      emitted.clear();
      emitted.reserve(rules.size(), rules.size() * matches,
                      rules.size() * actions);
      emitted_by.clear();
      const std::size_t first = sd.per_service ? c : 0;
      const std::size_t last = sd.per_service ? c + 1 : n;
      for (std::size_t s = first; s < last; ++s) {
        const std::optional<std::size_t> goto_target = goto_of(k, s);
        for_each_row(sd, gwlb_.services[s], s,
                     [&](std::span<const core::Value> row) {
                       dp::lower_row(sd.schema, row, fields.value(), lowered);
                       emitted.append(lowered.priority, lowered.matches.span(),
                                      lowered.actions.span(), goto_target);
                       emitted_by.push_back(static_cast<std::uint32_t>(s));
                     });
      }
      expects(emitted.size() == rules.size(),
              "provenance drift: stage rows disagree with compiled program");
      order.resize(rules.size());
      std::iota(order.begin(), order.end(), 0u);
      std::stable_sort(order.begin(), order.end(),
                       [&emitted](std::uint32_t a, std::uint32_t b) {
                         return emitted.priority_of(a) >
                                emitted.priority_of(b);
                       });
      for (std::size_t i = 0; i < rules.size(); ++i) {
        expects(emitted[order[i]] == rules[i],
                "provenance drift: stage rows disagree with compiled program");
        provenance_[t][i] = emitted_by[order[i]];
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

std::vector<std::uint32_t> GwlbBinding::slice_positions(
    std::size_t table, std::size_t service) const {
  const auto& index = slice_index_[table];
  const auto it = index.find(static_cast<std::uint32_t>(service));
  if (it == index.end()) return {};
  const util::BuildPositions& removals = slice_removals_[table];
  std::vector<std::uint32_t> live;
  live.reserve(it->second.size());
  for (const std::uint32_t build : it->second) {
    live.push_back(static_cast<std::uint32_t>(removals.live(build)));
  }
  return live;
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

Result<std::vector<Rule>> GwlbBinding::service_slice(
    std::size_t stage, const GwlbService& svc, std::size_t s) const {
  const StageDescriptor& sd = descriptor(repr_).stages[stage];
  const auto& fields = stage_fields_[stage];
  if (!fields.is_ok()) return fields.status();
  const std::optional<std::size_t> goto_target = goto_of(stage, s);
  std::vector<Rule> rules;
  rules.reserve(row_count(sd, svc));
  dp::LoweredRow lowered;
  for_each_row(sd, svc, s, [&](std::span<const core::Value> row) {
    dp::lower_row(sd.schema, row, fields.value(), lowered);
    rules.push_back(lowered.to_rule(goto_target));
  });
  sort_slice(rules);
  return rules;
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
  struct Patch {
    std::size_t stage = 0;
    std::size_t table = 0;
    std::vector<std::uint32_t> positions;  // ascending, pre-patch
    std::vector<Rule> before;
    std::vector<Rule> after;
  };
  // One patch per stage, in ascending table order: the order the
  // reference diff uses.
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  std::vector<Patch> patches;
  for (std::size_t stage = 0; stage < desc.stages.size(); ++stage) {
    const std::size_t t = desc.table_of(stage, service, n);
    Patch patch;
    patch.stage = stage;
    patch.table = t;
    const dp::FlatRules& rules = program_.tables[t].rules;
    patch.positions = slice_positions(t, service);
    patch.before.reserve(patch.positions.size());
    for (const std::uint32_t pos : patch.positions) {
      patch.before.push_back(rules[pos]);
    }
    // Validation: the slice extracted from the live program must equal
    // what the descriptor emits for the pre-intent service state. A
    // mismatch means provenance drifted — fall back, nothing mutated.
    auto want_before = service_slice(stage, old_svc, service);
    if (!want_before.is_ok() || want_before.value() != patch.before) {
      last_fallback_cause_ = FallbackCause::kSliceValidation;
      return std::nullopt;
    }
    auto after = service_slice(stage, svc, service);
    if (!after.is_ok()) {
      last_fallback_cause_ = FallbackCause::kSliceValidation;
      return std::nullopt;
    }
    patch.after = std::move(after).value();
    // Same shape = same size and per-index priorities: the global stable
    // order then keeps every slice rule at its old position, so the
    // patch can rewrite those rows in place. A lowered row's priority is
    // the popcount of its masks and only a removal changes a service's
    // prefixes, so every patch is same-shape or empty; any other would
    // have to move rows across the table, and falls back.
    const bool same_shape = std::ranges::equal(
        patch.after, patch.before, {}, &Rule::priority, &Rule::priority);
    if (!same_shape && !patch.after.empty()) {
      last_fallback_cause_ = FallbackCause::kSliceValidation;
      return std::nullopt;
    }
    patches.push_back(std::move(patch));
  }

  // Slice-local diffing identifies rules by content, so another live
  // service sharing this one's VIP (pre- or post-intent) could in
  // principle alias rules across slices. Rather than demoting every
  // collision to a full rebuild, prove isolation: if the symbolic engine
  // shows this service's slice region (before ∪ after) disjoint from each
  // colliding partner's slice in every affected table, no packet can hit
  // rules of both and the slice-local diff stays unambiguous. Only a
  // possible intersection falls back.
  std::vector<std::uint32_t> partners;
  const auto collect_partners = [&](std::uint32_t vip) {
    const auto it = vip_services_.find(vip);
    if (it == vip_services_.end()) return;
    for (const std::uint32_t p : it->second) {
      if (p != static_cast<std::uint32_t>(service) &&
          std::find(partners.begin(), partners.end(), p) == partners.end()) {
        partners.push_back(p);
      }
    }
  };
  if (old_live) collect_partners(old_svc.vip);
  if (new_live) collect_partners(svc.vip);
  if (!partners.empty()) {
    const obs::TraceSpan isolation_span("slice_isolation_proof");
    for (const Patch& patch : patches) {
      std::vector<Rule> self = patch.before;
      self.insert(self.end(), patch.after.begin(), patch.after.end());
      for (const std::uint32_t p : partners) {
        // A partner with its own table in this stage holds no rules in
        // this one: trivially disjoint.
        if (desc.table_of(patch.stage, p, n) != patch.table) continue;
        auto partner = service_slice(patch.stage, gwlb_.services[p], p);
        if (!partner.is_ok()) {
          last_fallback_cause_ = FallbackCause::kSliceValidation;
          return std::nullopt;
        }
        if (analysis::symbolic::slices_relation(self, partner.value()) !=
            analysis::symbolic::SliceRelation::kDisjoint) {
          last_fallback_cause_ = FallbackCause::kVipCollision;
          return std::nullopt;
        }
      }
    }
  }

  // Validation passed — mutate. First the universal table, cell-wise, so
  // untouched columns keep their partition-cache fingerprints across the
  // FD re-mine. The cached row offset replaces the O(service) prefix
  // scan; offsets stay valid while slice shapes do.
  const std::size_t offset = row_offsets_[service];
  if (old_live) vip_remove(old_svc.vip, service);
  if (new_live) vip_add(svc.vip, service);
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
  // bit-identical to a rebuild.
  std::vector<RuleUpdate> updates;
  for (Patch& patch : patches) {
    {
      const obs::TraceSpan diff_span("rule_diff");
      diff_rules(patch.table, patch.before, patch.after, updates);
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

  const GwlbService old_svc = svc;
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

std::vector<Rule> GwlbBinding::entry_rules(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  const std::vector<std::uint32_t> positions =
      slice_positions(program_.entry, service);
  std::vector<Rule> rules;
  rules.reserve(positions.size());
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
