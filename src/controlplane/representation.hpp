// The gwlb representations of Fig. 1 as data: one descriptor row per
// representation holds its stages, and each stage is a projection of the
// universal relation (Theorem 1) joined to the next by goto, by the
// service tag `s` or by a rematch. One reader (for_each_row) projects a
// service's universal rows into any stage. Building the pipeline,
// re-emitting one service's slice, the tables an intent touches, the
// decomposition components and the §2 monitorability and atomicity
// counts are all generic readers of these rows; none branches on the
// enum.
#pragma once

#include <array>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads/gwlb.hpp"

namespace maton::cp {

/// The pipeline representations of Fig. 1.
enum class Representation { kUniversal, kGoto, kMetadata, kRematch };

/// How a stage hands a packet that hit it to the following stage.
enum class StageLink { kNone, kNext, kGotoPerService };

/// Source of a stage cell that is not a universal-row column: the
/// service index `s`, the tag the metadata join writes and matches.
inline constexpr std::size_t kServiceTag = workloads::kGwlbColumns;

struct StageDescriptor {
  /// Table name; a per-service stage appends the service index.
  std::string_view name;
  /// Per schema column, the source of its cell: a universal-row column
  /// (workloads::kGwlb*) or kServiceTag.
  std::vector<std::size_t> cells;
  /// One row per backend (the LB and universal stages) instead of one
  /// per live service (the entry stage).
  bool row_per_backend = false;
  /// One table per service instead of one shared table.
  bool per_service = false;
  StageLink link = StageLink::kNone;
  /// The stage is Gwlb::universal itself, which pipelines reuse as is.
  bool reuses_universal = false;
  /// Derived from the cells: each universal column's attribute, and
  /// `meta.tenant` for the tag, an action in the entry stage (which
  /// writes it) and a match in the stage that reads it.
  core::Schema schema;
};

/// One stage row as for_each_row builds it: the first cells.size() values.
using StageRow = std::array<core::Value, kServiceTag + 1>;

/// Rows service `svc` contributes to `stage`: none when it is removed,
/// else one per backend or one.
[[nodiscard]] inline std::size_t row_count(
    const StageDescriptor& stage, const workloads::GwlbService& svc) noexcept {
  if (svc.src_prefixes.empty()) return 0;
  return stage.row_per_backend ? svc.src_prefixes.size() : 1;
}

/// The stage reader: calls `visit(std::span<const core::Value>)` with each
/// row service `s` (in state `svc`) contributes to `stage`, in emission
/// order. Row b projects workloads::gwlb_universal_row(svc, b) through
/// the stage's cells into one stack row, so reading allocates nothing;
/// the span is valid only during the call.
template <typename Visit>
void for_each_row(const StageDescriptor& stage,
                  const workloads::GwlbService& svc, std::size_t s,
                  Visit&& visit) {
  StageRow row{};
  const std::span<const core::Value> view(row.data(), stage.cells.size());
  for (std::size_t b = 0, n = row_count(stage, svc); b < n; ++b) {
    const auto universal = workloads::gwlb_universal_row(svc, b);
    for (std::size_t c = 0; c < stage.cells.size(); ++c) {
      const std::size_t source = stage.cells[c];
      row[c] = source == kServiceTag ? s : universal[source];
    }
    visit(view);
  }
}

struct RepresentationDescriptor {
  std::string_view name;
  /// Stages in pipeline order; the first is the entry.
  std::vector<StageDescriptor> stages;

  /// Program table of stage `stage` holding service `s`'s rows, in a
  /// fleet of `services` services.
  [[nodiscard]] std::size_t table_of(std::size_t stage, std::size_t s,
                                     std::size_t services) const noexcept;
};

[[nodiscard]] const RepresentationDescriptor& descriptor(Representation repr);

[[nodiscard]] std::string_view to_string(Representation repr) noexcept;

/// The representation named `name` ("universal", "goto", "metadata",
/// "rematch"), or nullopt.
[[nodiscard]] std::optional<Representation> parse_representation(
    std::string_view name);

/// Table `copy` of stage `stage` as a pipeline stage: the rows of the
/// services it holds (service `copy` alone in a per-service stage, every
/// service in order in a shared one), their goto targets and the stage's
/// successor, with table indices as in pipeline_for. The universal stage
/// is Gwlb::universal itself.
[[nodiscard]] core::Stage emit_table(const workloads::Gwlb& gwlb,
                                     Representation repr, std::size_t stage,
                                     std::size_t copy);

/// Builds the core pipeline for a representation (universal = single
/// stage): every table of every stage through emit_table.
[[nodiscard]] core::Pipeline pipeline_for(const workloads::Gwlb& gwlb,
                                          Representation repr);

/// Attribute-set components (over the universal schema) that each
/// representation decomposes the universal table into, for the
/// decomposition-safety analysis, one per stage: the stage's universal
/// columns, plus the entry stage's match columns when the stage matches
/// the tag or is reached through a per-service goto (the tag and the goto
/// target are functions of that selector). Every component is a subset
/// of the universal schema (Theorem 1 reasons over the original
/// relation).
[[nodiscard]] std::vector<core::AttrSet> decomposition_components(
    Representation repr, const core::Schema& universal_schema);

}  // namespace maton::cp
