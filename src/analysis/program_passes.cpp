// Program-level passes: rule shadowing (MA1xx), pipeline reachability
// (MA2xx) and read-before-write dataflow hazards (MA3xx). All operate on
// the compiled dp::Program only — no core-model input required.
#include <algorithm>
#include <array>
#include <optional>
#include <vector>

#include "analysis/analysis.hpp"
#include "util/format.hpp"

namespace maton::analysis {

namespace {

using detail::Sink;
using detail::describe_rule;

[[nodiscard]] bool same_outcome(const dp::RuleView& a,
                                const dp::RuleView& b) {
  return a.actions == b.actions && a.goto_table == b.goto_table;
}

/// Successor tables a hit in `table` can transfer to.
void append_successors(const dp::TableSpec& table,
                       std::vector<std::size_t>& out) {
  bool any_default = false;
  for (const auto rule : table.rules) {
    if (rule.goto_table.has_value()) {
      out.push_back(*rule.goto_table);
    } else {
      any_default = true;
    }
  }
  if (any_default && table.next.has_value()) out.push_back(*table.next);
}

}  // namespace

void run_shadowing_pass(const Input& input, const Options& options,
                        Report& report) {
  Sink sink("shadowing", options, report);
  if (input.program == nullptr) return;
  sink.mark_ran();

  std::vector<dp::MatchRegion> regions;
  for (std::size_t t = 0; t < input.program->tables.size(); ++t) {
    const dp::TableSpec& table = input.program->tables[t];
    regions.clear();
    for (const auto rule : table.rules) {
      regions.push_back(dp::MatchRegion::of(rule.matches));
    }
    for (std::size_t j = 0; j < regions.size(); ++j) {
      const dp::MatchRegion& region = regions[j];
      if (!region.satisfiable) {
        sink.emit({Severity::kWarning, "MA103", "", t, j,
                   "rule in table '" + table.name +
                       "' can never match: contradictory constraints on " +
                       std::string(to_string(region.conflict)),
                   describe_rule(table.rules[j])});
        continue;
      }
      // Lookup is first-match in vector order (the compiler sorts by
      // priority descending), so only earlier rules can shadow.
      for (std::size_t i = 0; i < j; ++i) {
        if (!regions[i].contains(region)) continue;
        sink.emit({Severity::kWarning, "MA101", "", t, j,
                   "rule in table '" + table.name +
                       "' is fully shadowed by rule#" + std::to_string(i),
                   "shadowed: " + describe_rule(table.rules[j]) +
                       "; shadowing rule#" + std::to_string(i) + ": " +
                       describe_rule(table.rules[i])});
        break;
      }
      // Ambiguous overlap: same priority, intersecting regions, different
      // outcome — lookup order decides, which breaks the paper's
      // order-independence requirement at the data-plane level.
      for (std::size_t i = 0; i < j; ++i) {
        if (table.rules.priority_of(i) != table.rules.priority_of(j)) {
          continue;
        }
        if (regions[i].contains(region) || region.contains(regions[i])) {
          continue;  // already reported as MA101 (or identical)
        }
        if (!regions[i].intersects(region)) continue;
        if (same_outcome(table.rules[i], table.rules[j])) continue;
        sink.emit({Severity::kWarning, "MA102", "", t, j,
                   "rules #" + std::to_string(i) + " and #" +
                       std::to_string(j) + " in table '" + table.name +
                       "' overlap at equal priority with different "
                       "actions (order-dependent lookup)",
                   describe_rule(table.rules[i]) + " vs " +
                       describe_rule(table.rules[j])});
        break;
      }
    }
  }
}

void run_reachability_pass(const Input& input, const Options& options,
                           Report& report) {
  Sink sink("reachability", options, report);
  if (input.program == nullptr) return;
  sink.mark_ran();

  const dp::Program& program = *input.program;
  const std::size_t n = program.tables.size();
  if (n == 0) return;

  // Malformed targets first (checked for every table, reachable or not):
  // an out-of-range jump is a hard error wherever it sits.
  bool malformed = false;
  const auto check_target = [&](std::size_t t,
                                std::optional<std::size_t> rule,
                                std::size_t target) {
    if (target < n) return;
    malformed = true;
    sink.emit({Severity::kError, "MA201", "", t, rule,
               "jump target " + std::to_string(target) +
                   " out of range (program has " + std::to_string(n) +
                   " tables)",
               rule.has_value()
                   ? describe_rule(program.tables[t].rules[*rule])
                   : "table default successor"});
  };
  if (program.entry >= n) {
    sink.emit({Severity::kError, "MA201", "", std::nullopt, std::nullopt,
               "program entry " + std::to_string(program.entry) +
                   " out of range",
               ""});
    malformed = true;
  }
  for (std::size_t t = 0; t < n; ++t) {
    const dp::TableSpec& table = program.tables[t];
    if (table.next.has_value()) check_target(t, std::nullopt, *table.next);
    for (std::size_t r = 0; r < table.rules.size(); ++r) {
      if (table.rules[r].goto_table.has_value()) {
        check_target(t, r, *table.rules[r].goto_table);
      }
    }
  }
  if (malformed) return;  // graph traversal below assumes valid indices

  // DFS from the entry: reachability plus back-edge (cycle) detection.
  enum class Color : std::uint8_t { kWhite, kGrey, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<std::size_t> path;  // grey chain for the cycle witness
  // Iterative DFS with an explicit post-visit marker per node.
  std::vector<std::pair<std::size_t, bool>> work;
  work.emplace_back(program.entry, false);
  bool cycle_reported = false;
  while (!work.empty()) {
    const auto [t, post] = work.back();
    work.pop_back();
    if (post) {
      color[t] = Color::kBlack;
      path.pop_back();
      continue;
    }
    if (color[t] != Color::kWhite) continue;
    color[t] = Color::kGrey;
    path.push_back(t);
    work.emplace_back(t, true);
    std::vector<std::size_t> succ;
    append_successors(program.tables[t], succ);
    for (const std::size_t s : succ) {
      if (color[s] == Color::kGrey && !cycle_reported) {
        cycle_reported = true;
        std::string witness = "cycle:";
        const auto it = std::find(path.begin(), path.end(), s);
        for (auto p = it; p != path.end(); ++p) {
          witness.append(" ").append(std::to_string(*p)).append(" ->");
        }
        witness.append(" ").append(std::to_string(s));
        sink.emit({Severity::kError, "MA202", "", t, std::nullopt,
                   "table graph contains a cycle through table '" +
                       program.tables[s].name + "'",
                   witness});
      } else if (color[s] == Color::kWhite) {
        work.emplace_back(s, false);
      }
    }
  }

  for (std::size_t t = 0; t < n; ++t) {
    if (color[t] != Color::kWhite) continue;
    if (program.tables[t].rules.empty()) {
      sink.emit({Severity::kInfo, "MA204", "", t, std::nullopt,
                 "empty table '" + program.tables[t].name +
                     "' is unreachable from the entry",
                 ""});
    } else {
      sink.emit({Severity::kWarning, "MA203", "", t, std::nullopt,
                 "table '" + program.tables[t].name + "' holds " +
                     std::to_string(program.tables[t].rules.size()) +
                     " rule(s) but is unreachable from the entry",
                 "entry=" + std::to_string(program.entry)});
    }
  }
}

void run_dataflow_pass(const Input& input, const Options& options,
                       Report& report) {
  Sink sink("dataflow", options, report);
  if (input.program == nullptr) return;
  sink.mark_ran();

  const dp::Program& program = *input.program;
  const std::size_t n = program.tables.size();
  if (n == 0 || program.entry >= n) return;

  const auto is_meta = [](dp::FieldId f) {
    return f >= dp::FieldId::kMeta0 && f <= dp::FieldId::kMeta3;
  };
  constexpr std::size_t kNumMeta = 4;
  const auto meta_index = [](dp::FieldId f) {
    return dp::field_index(f) - dp::field_index(dp::FieldId::kMeta0);
  };
  const auto width_mask = [](std::uint8_t width) -> std::uint64_t {
    return width >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << width) - 1;
  };

  // Bit-granular may-define dataflow over the metadata fields:
  // in_def[t][f] holds the bits of meta field f that SOME path into t
  // has written (a kSetField of declared width w defines the low w
  // bits). The transfer is a monotone union, so the worklist terminates
  // even on (already-reported) cyclic graphs. A table is only included
  // once reachable.
  using DefBits = std::array<std::uint64_t, kNumMeta>;
  std::vector<DefBits> in_def(n, DefBits{});
  std::vector<bool> reachable(n, false);
  std::vector<std::size_t> work = {program.entry};
  reachable[program.entry] = true;
  while (!work.empty()) {
    const std::size_t t = work.back();
    work.pop_back();
    const dp::TableSpec& table = program.tables[t];
    for (const auto rule : table.rules) {
      DefBits out = in_def[t];
      for (const dp::Action a : rule.actions) {
        if (a.kind == dp::Action::Kind::kSetField && is_meta(a.field)) {
          out[meta_index(a.field)] |=
              width_mask(a.width_bits) & dp::field_full_mask(a.field);
        }
      }
      std::optional<std::size_t> succ =
          rule.goto_table.has_value() ? rule.goto_table : table.next;
      if (!succ.has_value() || *succ >= n) continue;
      DefBits merged = in_def[*succ];
      for (std::size_t f = 0; f < kNumMeta; ++f) merged[f] |= out[f];
      if (!reachable[*succ] || merged != in_def[*succ]) {
        in_def[*succ] = merged;
        reachable[*succ] = true;
        work.push_back(*succ);
      }
    }
  }

  for (std::size_t t = 0; t < n; ++t) {
    if (!reachable[t]) continue;  // dead tables are MA203/MA204 territory
    const dp::TableSpec& table = program.tables[t];
    for (std::size_t r = 0; r < table.rules.size(); ++r) {
      for (const dp::FieldMatch& m : table.rules[r].matches) {
        if (!is_meta(m.field) || m.mask == 0) continue;
        const std::uint64_t defined = in_def[t][meta_index(m.field)];
        if (defined == 0) {
          sink.emit({Severity::kWarning, "MA301", "", t, r,
                     "rule in table '" + table.name + "' matches metadata " +
                         std::string(to_string(m.field)) +
                         " which no upstream action can have set "
                         "(read-before-write; unset metadata reads as 0)",
                     describe_rule(table.rules[r])});
          break;  // one hazard per rule is enough
        }
        // Partially-initialized read: the match mask covers bits no
        // upstream write defines (e.g. a 4-bit tag matched under an
        // 8-bit mask) — those bits always read as 0, silently shrinking
        // the match.
        const std::uint64_t undefined_read = m.mask & ~defined;
        if (undefined_read != 0) {
          sink.emit({Severity::kWarning, "MA302", "", t, r,
                     "rule in table '" + table.name + "' matches metadata " +
                         std::string(to_string(m.field)) + " under mask " +
                         format_hex(m.mask) +
                         " but upstream actions only define bits " +
                         format_hex(defined) +
                         " (partially-initialized read; undefined bits " +
                         format_hex(undefined_read) + " always read as 0)",
                     describe_rule(table.rules[r])});
          break;  // one hazard per rule is enough
        }
      }
    }
  }
}

}  // namespace maton::analysis
