// The gwlb representations of Fig. 1 as data: one descriptor row per
// representation holds its stages and its decomposition components.
// Building the pipeline, re-emitting one service's slice, the tables an
// intent touches and the §2 monitorability and atomicity counts are all
// generic readers of these rows; none branches on the enum.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "workloads/gwlb.hpp"

namespace maton::cp {

/// The pipeline representations of Fig. 1.
enum class Representation { kUniversal, kGoto, kMetadata, kRematch };

/// How a stage hands a packet that hit it to the following stage.
enum class StageLink { kNone, kNext, kGotoPerService };

struct StageDescriptor {
  /// Table name; a per-service stage appends the service index.
  std::string_view name;
  core::Schema schema;
  /// Rows service `s` contributes, in emission order (none when removed).
  std::vector<core::Row> (*rows)(const workloads::GwlbService& svc,
                                 std::size_t s) = nullptr;
  /// One table per service instead of one shared table.
  bool per_service = false;
  StageLink link = StageLink::kNone;
  /// The stage is Gwlb::universal itself, which pipelines reuse as is.
  bool reuses_universal = false;
};

struct RepresentationDescriptor {
  std::string_view name;
  /// Stages in pipeline order; the first is the entry.
  std::vector<StageDescriptor> stages;
  /// See decomposition_components.
  std::vector<core::AttrSet> components;

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
/// decomposition-safety analysis. Metadata registers are expanded to the
/// attributes they are derived from, so every component is a subset of
/// the universal schema (Theorem 1 reasons over the original relation).
[[nodiscard]] std::vector<core::AttrSet> decomposition_components(
    Representation repr, const core::Schema& universal_schema);

}  // namespace maton::cp
