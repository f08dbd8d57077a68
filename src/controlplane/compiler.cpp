#include "controlplane/compiler.hpp"

#include <algorithm>
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

/// Hashes a rule's full content; `RuleT` is dp::Rule or dp::RuleView, so
/// flattened tables hash without materializing boundary Rules.
template <typename RuleT>
[[nodiscard]] std::uint64_t hash_rule(const RuleT& r) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
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

void sort_slice(std::vector<Rule>& rules) {
  // The compiler's table order: priority descending, emission order
  // among equals (stable).
  std::stable_sort(rules.begin(), rules.end(),
                   [](const Rule& a, const Rule& b) {
                     return a.priority > b.priority;
                   });
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
  const Status built = rebuild_program();
  expects(built.is_ok(), "gwlb program failed to compile: " + built.message());
  if (analyze_ == AnalyzeMode::kPostCompile) run_post_compile_analysis();
  if (verify_ == VerifyMode::kSymbolic) run_post_compile_verify();
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

void GwlbBinding::run_post_compile_verify() {
  const obs::TraceSpan span("symbolic_verify");
  // Rebuild an independent reference through the full pipeline path and
  // prove the live (possibly patched-in-place) program equivalent to it.
  // A bit-identical program passes trivially; the point is that even a
  // bit-different-but-semantically-equal patch verifies, and any drift
  // surfaces as a refutation with a concrete counterexample packet.
  auto reference = dp::compile(pipeline_for(gwlb_, repr_));
  expects(reference.is_ok(),
          "symbolic verify: reference pipeline failed to lower");
  const auto result =
      analysis::symbolic::check_programs(program_, reference.value());
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
    for (core::Row& row : workloads::gwlb_universal_rows(svc)) {
      universal.add_row(std::move(row));
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
  rebuild_provenance();
  rebuild_indexes();
  return Status::ok();
}

void GwlbBinding::rebuild_provenance() {
  // Re-emit every service's slice into its table and stable-sort each
  // table's concatenation: per-slice pre-sorting commutes with the global
  // stable sort, so the result must reproduce the compiled table exactly.
  // This doubles as the cross-check that the slice emitter cannot drift
  // from the pipeline builder.
  const RepresentationDescriptor& desc = descriptor(repr_);
  const std::size_t n = gwlb_.services.size();
  provenance_.assign(program_.tables.size(), {});
  std::vector<std::vector<std::pair<Rule, std::uint32_t>>> by_table(
      program_.tables.size());
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t k = 0; k < desc.stages.size(); ++k) {
      auto slice = service_slice(k, gwlb_.services[s], s);
      expects(slice.is_ok(), "service slice failed to lower: " +
                                 slice.status().message());
      auto& emitted = by_table[desc.table_of(k, s, n)];
      for (Rule& rule : slice.value()) {
        emitted.emplace_back(std::move(rule), static_cast<std::uint32_t>(s));
      }
    }
  }
  for (std::size_t t = 0; t < program_.tables.size(); ++t) {
    auto& emitted = by_table[t];
    std::stable_sort(emitted.begin(), emitted.end(),
                     [](const auto& a, const auto& b) {
                       return a.first.priority > b.first.priority;
                     });
    const dp::FlatRules& rules = program_.tables[t].rules;
    expects(emitted.size() == rules.size(),
            "provenance drift: emitters disagree with compiled program");
    provenance_[t].reserve(emitted.size());
    for (std::size_t i = 0; i < emitted.size(); ++i) {
      expects(emitted[i].first == rules[i],
              "provenance drift: emitters disagree with compiled program");
      provenance_[t].push_back(emitted[i].second);
    }
  }
}

void GwlbBinding::rebuild_indexes() {
  slice_index_.assign(program_.tables.size(), {});
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
  auto& index = slice_index_[table];
  index.erase(static_cast<std::uint32_t>(service));
  for (auto& entry : index) {
    for (std::uint32_t& pos : entry.second) {
      pos -= static_cast<std::uint32_t>(shift_below(pos, erased));
    }
  }
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
  const RepresentationDescriptor& desc = descriptor(repr_);
  const StageDescriptor& sd = desc.stages[stage];
  const std::optional<std::size_t> goto_target =
      sd.link == StageLink::kGotoPerService
          ? std::optional(desc.table_of(stage + 1, s, gwlb_.services.size()))
          : std::nullopt;
  std::vector<Rule> rules;
  for (const core::Row& row : sd.rows(svc, s)) {
    auto lowered = dp::lower_row(sd.schema, row, field_map_, goto_target);
    if (!lowered.is_ok()) return lowered.status();
    rules.push_back(std::move(lowered).value());
  }
  sort_slice(rules);
  return rules;
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
    bool same_shape = false;
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
    if (const auto it =
            slice_index_[t].find(static_cast<std::uint32_t>(service));
        it != slice_index_[t].end()) {
      patch.positions = it->second;
      patch.before.reserve(patch.positions.size());
      for (const std::uint32_t pos : patch.positions) {
        patch.before.push_back(rules[pos]);
      }
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
    // patch can rewrite those rows in place.
    patch.same_shape = patch.after.size() == patch.before.size();
    for (std::size_t k = 0; patch.same_shape && k < patch.after.size();
         ++k) {
      if (patch.after[k].priority != patch.before[k].priority) {
        patch.same_shape = false;
      }
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
  // *proven-possible* intersection (or a solver bail) falls back.
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
  // patch the new one in at its sorted positions. The same-shape fast
  // path rewrites the slice's rows in place — O(slice) with provenance,
  // the slice index, and every other row untouched. A slice that is
  // gone (RemoveService) is erased in place: the survivors keep their
  // order, so one pass each over the rules, provenance and the slice
  // index drops it. Any other shape change (an emitter changing
  // priorities) takes the merge splice, which reproduces the full
  // compiler's order — priority descending, (service, ordinal) ascending
  // among equals — so the patched program stays bit-identical to a
  // rebuild either way.
  std::vector<RuleUpdate> updates;
  for (Patch& patch : patches) {
    {
      const obs::TraceSpan diff_span("rule_diff");
      diff_rules(patch.table, patch.before, patch.after, updates);
    }
    if (patch.before == patch.after) continue;  // untouched slice

    const obs::TraceSpan merge_span("slice_merge");
    TableSpec& spec = program_.tables[patch.table];
    if (patch.same_shape) {
      for (std::size_t k = 0; k < patch.positions.size(); ++k) {
        spec.rules.replace(patch.positions[k], patch.after[k]);
      }
      continue;
    }
    if (patch.after.empty()) {
      erase_slice(patch.table, service, patch.positions);
      continue;
    }

    const std::vector<std::uint32_t>& old_prov = provenance_[patch.table];
    // `before` was extracted from this table, so it cannot outnumber it;
    // the guard keeps the reserve arithmetic from wrapping if that
    // invariant ever breaks.
    expects(patch.before.size() <= spec.rules.size(),
            "slice larger than its table");
    std::vector<Rule> merged;
    std::vector<std::uint32_t> prov;
    merged.reserve(spec.rules.size() + patch.after.size() -
                   patch.before.size());
    prov.reserve(merged.capacity());
    std::size_t ai = 0;
    for (std::size_t i = 0; i < spec.rules.size(); ++i) {
      if (old_prov[i] == service) continue;
      while (ai < patch.after.size() &&
             (patch.after[ai].priority > spec.rules.priority_of(i) ||
              (patch.after[ai].priority == spec.rules.priority_of(i) &&
               service < old_prov[i]))) {
        merged.push_back(std::move(patch.after[ai++]));
        prov.push_back(static_cast<std::uint32_t>(service));
      }
      merged.push_back(spec.rules[i]);
      prov.push_back(old_prov[i]);
    }
    for (; ai < patch.after.size(); ++ai) {
      merged.push_back(std::move(patch.after[ai]));
      prov.push_back(static_cast<std::uint32_t>(service));
    }
    spec.rules = dp::FlatRules(merged);
    provenance_[patch.table] = std::move(prov);
    rebuild_slice_index(patch.table);
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
      ++inc_stats_.hits;
      hits.add();
      if (analyze_ == AnalyzeMode::kPostCompile) run_post_compile_analysis();
      if (verify_ == VerifyMode::kSymbolic) run_post_compile_verify();
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
  if (analyze_ == AnalyzeMode::kPostCompile) run_post_compile_analysis();
  if (verify_ == VerifyMode::kSymbolic) run_post_compile_verify();
  return updates;
}

MonitorPlan GwlbBinding::monitor_plan(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  // All of the service's traffic passes its entries in the entry stage:
  // one counter each, summed in the controller.
  const std::size_t counters =
      descriptor(repr_).stages.front().rows(gwlb_.services[service], service)
          .size();
  return {counters, std::max<std::size_t>(counters, 1) - 1};
}

std::vector<Rule> GwlbBinding::entry_rules(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  const auto& index = slice_index_[program_.entry];
  const auto it = index.find(static_cast<std::uint32_t>(service));
  if (it == index.end()) return {};
  std::vector<Rule> rules;
  rules.reserve(it->second.size());
  for (const std::uint32_t pos : it->second) {
    rules.push_back(program_.tables[program_.entry].rules[pos]);
  }
  return rules;
}

std::size_t GwlbBinding::identity_entries(std::size_t service) const {
  expects(service < gwlb_.services.size(), "service index out of range");
  std::size_t entries = 0;
  for (const StageDescriptor& stage : descriptor(repr_).stages) {
    if (stage.schema.find("ip_dst").has_value()) {
      entries += stage.rows(gwlb_.services[service], service).size();
    }
  }
  return entries;
}

}  // namespace maton::cp
