// core::Pipeline / core::Table front-end: value-universe diagrams over
// the matched attribute names of both sides, deciding equivalence on
// Pipeline::evaluate's (hit, actions) observable.
//
// Universe semantics: one Value variable per matched attribute name
// (metadata names ranked first — a metadata write then substitutes at
// the successor diagram's root). A value node's default branch stands
// for "any value no edge tests", which is also how unbound attributes
// behave: every row of an exact-match stage requires some concrete
// value, so an unbound (or never-written metadata) attribute misses the
// stage exactly like a fresh value does. Roots are cofactored onto the
// default branch of every metadata variable, modeling the empty initial
// metadata state.
#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/symbolic/engine.hpp"
#include "analysis/symbolic/internal.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace maton::analysis::symbolic {
namespace {

constexpr std::uint64_t kVerdictTag = std::uint64_t{1} << 63;

/// Interned observable of one pipeline execution: EvalResult's (hit,
/// actions) with the action bindings sorted by name.
struct CoreVerdict {
  bool hit = false;
  std::vector<std::pair<std::string, core::Value>> actions;

  friend auto operator<=>(const CoreVerdict&, const CoreVerdict&) = default;
};

/// Metadata names order before header names so metadata writes
/// substitute near the successor root; within a group, lexicographic.
bool universe_less(const std::string& a, const std::string& b) {
  const bool ma = core::is_metadata_name(a);
  const bool mb = core::is_metadata_name(b);
  if (ma != mb) return ma;
  return a < b;
}

struct CoreContext {
  explicit CoreContext(DiagramStore& store) : dd(store) {}

  DiagramStore& dd;
  std::vector<std::string> universe;  // var → attribute name
  std::map<std::string, std::uint32_t, std::less<>> vars;
  std::vector<CoreVerdict> verdicts;
  std::map<CoreVerdict, std::uint32_t> verdict_ids;
  NodeId miss = kInvalidNode;  // verdict (false, {})

  std::uint64_t payload(CoreVerdict v) {
    const auto it = verdict_ids.find(v);
    if (it != verdict_ids.end()) return kVerdictTag | it->second;
    const auto id = static_cast<std::uint32_t>(verdicts.size());
    verdicts.push_back(v);
    verdict_ids.emplace(std::move(v), id);
    return kVerdictTag | id;
  }
  NodeId leaf(CoreVerdict v) { return dd.leaf(payload(std::move(v))); }
  [[nodiscard]] const CoreVerdict& of(std::uint64_t p) const {
    return verdicts[p & ~kVerdictTag];
  }

  void build_universe(std::set<std::string>& names) {
    universe.assign(names.begin(), names.end());
    std::sort(universe.begin(), universe.end(), universe_less);
    for (std::uint32_t v = 0; v < universe.size(); ++v) {
      vars.emplace(universe[v], v);
    }
    miss = leaf(CoreVerdict{});
  }
};

void collect_match_names(const core::Pipeline& pipeline,
                         std::set<std::string>& names) {
  for (const core::Stage& stage : pipeline.stages()) {
    const core::Schema& schema = stage.table.schema();
    for (const std::size_t c : schema.match_set()) {
      names.insert(schema.at(c).name);
    }
  }
}

class PipelineTranslator {
 public:
  PipelineTranslator(CoreContext& ctx, const core::Pipeline& pipeline)
      : ctx_(ctx),
        dd_(ctx.dd),
        pipeline_(pipeline),
        cache_(pipeline.num_stages(), kInvalidNode),
        visiting_(pipeline.num_stages(), 0) {}

  NodeId root() {
    if (pipeline_.stages().empty()) return ctx_.miss;
    check_target(pipeline_.entry());
    const NodeId raw = stage_diagram(pipeline_.entry());
    // Initial packets carry no metadata: fix every metadata variable to
    // its default ("a value no rule matches") branch.
    return dd_.restrict_default(raw, [this](std::uint32_t var) {
      return core::is_metadata_name(ctx_.universe[var]);
    });
  }

 private:
  void check_target(std::size_t stage) const {
    if (stage >= pipeline_.num_stages()) {
      throw detail::TranslationBail{"pipeline jump out of range"};
    }
  }

  NodeId stage_diagram(std::size_t idx) {
    if (cache_[idx] != kInvalidNode) return cache_[idx];
    if (visiting_[idx] != 0) {
      throw detail::TranslationBail{"pipeline stage graph contains a cycle"};
    }
    visiting_[idx] = 1;
    const core::Stage& st = pipeline_.stage(idx);
    const core::Table& table = st.table;
    const core::Schema& schema = table.schema();
    if (st.uses_goto() && st.goto_targets.size() < table.num_rows()) {
      throw detail::TranslationBail{"goto targets not parallel to rows"};
    }

    // (var, column) of each match column, ascending by universe var.
    std::vector<std::pair<std::uint32_t, std::size_t>> match_cols;
    for (const std::size_t c : schema.match_set()) {
      match_cols.emplace_back(ctx_.vars.at(schema.at(c).name), c);
    }
    std::sort(match_cols.begin(), match_cols.end());
    std::vector<std::size_t> action_cols;
    for (const std::size_t c : schema.action_set()) action_cols.push_back(c);

    std::vector<NodeId> row_dds;
    row_dds.reserve(table.num_rows());
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      const std::optional<std::size_t> target =
          st.uses_goto() ? std::optional{st.goto_targets[r]} : st.next;
      NodeId c = ctx_.dd.false_leaf();
      if (target.has_value()) {
        check_target(*target);
        c = stage_diagram(*target);
      } else {
        c = ctx_.leaf({true, {}});
      }

      // Action writes feed downstream matching (metadata join, header
      // rewrites): cofactor the successor on every written universe var.
      std::map<std::uint32_t, core::Value> writes;
      for (const std::size_t col : action_cols) {
        const auto var = ctx_.vars.find(schema.at(col).name);
        if (var != ctx_.vars.end()) {
          writes.emplace(var->second, table.at(r, col));
        }
      }
      if (!writes.empty()) {
        c = dd_.restrict_with(
            c, [&writes](std::uint32_t var) -> std::optional<std::uint64_t> {
              const auto it = writes.find(var);
              if (it == writes.end()) return std::nullopt;
              return it->second;
            });
      }

      // Observable bindings accumulate add-if-absent onto downstream
      // verdicts — a later stage's write of the same name wins, exactly
      // as evaluate's pending_actions overwrite does.
      std::vector<std::pair<std::string, core::Value>> adds;
      for (const std::size_t col : action_cols) {
        const std::string& name = schema.at(col).name;
        if (!core::is_metadata_name(name)) {
          adds.emplace_back(name, table.at(r, col));
        }
      }
      if (!adds.empty()) {
        c = dd_.map_leaves(c, [this, &adds](std::uint64_t p) {
          CoreVerdict merged = ctx_.of(p);  // copy: interning may realloc
          if (!merged.hit) return p;        // miss discards all actions
          for (const auto& [name, value] : adds) {
            const auto it = std::lower_bound(
                merged.actions.begin(), merged.actions.end(), name,
                [](const auto& e, const std::string& n) {
                  return e.first < n;
                });
            if (it == merged.actions.end() || it->first != name) {
              merged.actions.emplace(it, name, value);
            }
          }
          return ctx_.payload(std::move(merged));
        });
      }

      std::vector<CubeValue> cube;
      cube.reserve(match_cols.size());
      for (const auto& [var, col] : match_cols) {
        cube.push_back({var, table.at(r, col)});
      }
      row_dds.push_back(dd_.ite(dd_.value_cube(cube), c, ctx_.miss));
    }

    // Left-biased balanced union: earlier rows win on duplicate keys
    // (find_row's first-ascending-match), merge cost O(n log n) edges.
    while (row_dds.size() > 1) {
      std::vector<NodeId> next;
      next.reserve((row_dds.size() + 1) / 2);
      for (std::size_t i = 0; i < row_dds.size(); i += 2) {
        next.push_back(i + 1 < row_dds.size()
                           ? dd_.overlay_first(row_dds[i], row_dds[i + 1],
                                               ctx_.miss)
                           : row_dds[i]);
      }
      row_dds = std::move(next);
    }
    const NodeId result = row_dds.empty() ? ctx_.miss : row_dds[0];
    visiting_[idx] = 0;
    cache_[idx] = result;
    return result;
  }

  CoreContext& ctx_;
  DiagramStore& dd_;
  const core::Pipeline& pipeline_;
  std::vector<NodeId> cache_;
  std::vector<char> visiting_;
};

core::PacketState packet_from_path(CoreContext& ctx,
                                   std::span<const PathStep> path,
                                   NodeId ra, NodeId rb) {
  core::PacketState packet;
  std::set<std::uint32_t> assigned;
  for (const PathStep& step : path) {
    const std::string& name = ctx.universe[step.var];
    if (step.is_default) {
      // Any value no edge on this var tests reaches the same leaf.
      std::uint64_t fresh = 0;
      if (const auto m = ctx.dd.max_edge_value(ra, step.var)) {
        fresh = std::max(fresh, *m + 1);
      }
      if (const auto m = ctx.dd.max_edge_value(rb, step.var)) {
        fresh = std::max(fresh, *m + 1);
      }
      packet[name] = fresh;
    } else {
      packet[name] = step.branch;
    }
    assigned.insert(step.var);
  }
  // Vars the divergence path never branched on are don't-care for both
  // diagrams; bind them so evaluate() sees a fully-assigned header.
  for (std::uint32_t v = 0; v < ctx.universe.size(); ++v) {
    if (!assigned.contains(v) && !core::is_metadata_name(ctx.universe[v])) {
      packet[ctx.universe[v]] = 0;
    }
  }
  return packet;
}

std::string describe_eval(const core::EvalResult& r) {
  if (!r.hit) return "miss";
  std::ostringstream os;
  os << "hit{";
  bool first = true;
  for (const auto& [name, value] : r.actions) {
    if (!first) os << ", ";
    first = false;
    os << name << "=" << value;
  }
  os << "}";
  return os.str();
}

std::string describe_packet(const core::PacketState& packet) {
  std::ostringstream os;
  os << "packet{";
  bool first = true;
  for (const auto& [name, value] : packet) {
    if (!first) os << ", ";
    first = false;
    os << name << "=" << value;
  }
  os << "}";
  return os.str();
}

}  // namespace

Result check_pipelines(const core::Pipeline& a, const core::Pipeline& b,
                       const Options& options) {
  static const detail::SolveCounters counters("pipelines");
  const obs::TraceSpan span("symbolic_solve");
  DiagramStore dd(options.max_nodes);
  Result solved = detail::guarded(options, [&] {
    CoreContext ctx(dd);
    std::set<std::string> names;
    collect_match_names(a, names);
    collect_match_names(b, names);
    ctx.build_universe(names);

    const NodeId ra = PipelineTranslator(ctx, a).root();
    const NodeId rb = PipelineTranslator(ctx, b).root();
    Result result;
    if (ra == rb) {
      result.outcome = Outcome::kEquivalent;
      return result;
    }
    const auto div = dd.first_divergence(ra, rb);
    ensures(div.has_value(), "divergent roots without a divergence");
    const core::PacketState packet = packet_from_path(ctx, div->path, ra, rb);
    const core::EvalResult ea = a.evaluate(packet);
    const core::EvalResult eb = b.evaluate(packet);
    if (ea.hit == eb.hit && (!ea.hit || ea.actions == eb.actions)) {
      result.outcome = Outcome::kUnknown;
      result.note = "counterexample failed scalar confirmation";
      return result;
    }
    result.outcome = Outcome::kInequivalent;
    Counterexample cex;
    cex.packet = packet;
    cex.description = describe_packet(packet) + " -> left " +
                      describe_eval(ea) + " vs right " + describe_eval(eb);
    result.counterexample = std::move(cex);
    return result;
  });
  solved.stats = dd.stats();
  detail::record(counters, solved);
  return solved;
}

Result check_table_vs_pipeline(const core::Table& universal,
                               const core::Pipeline& pipeline,
                               const Options& options) {
  return check_pipelines(core::Pipeline::single(universal), pipeline,
                         options);
}

}  // namespace maton::analysis::symbolic
