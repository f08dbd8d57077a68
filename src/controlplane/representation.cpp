#include "controlplane/representation.hpp"

#include <array>
#include <string>

#include "util/contract.hpp"

namespace maton::cp {

using core::AttrSet;

namespace {

/// Rows in Representation order.
std::array<RepresentationDescriptor, 4> build_descriptors() {
  using namespace workloads;
  std::array<RepresentationDescriptor, 4> rows{{
      // Fig. 1a: the universal table itself.
      {"universal",
       {{.name = "gwlb.universal",
         .cells = {kGwlbIpSrc, kGwlbIpDst, kGwlbTcpDst, kGwlbOut},
         .row_per_backend = true,
         .reuses_universal = true}}},
      // Fig. 1b: the entry jumps to a per-service LB table via goto_table.
      {"goto",
       {{.name = "gwlb.services", .cells = {kGwlbIpDst, kGwlbTcpDst},
         .link = StageLink::kGotoPerService},
        {.name = "gwlb.lb", .cells = {kGwlbIpSrc, kGwlbOut},
         .row_per_backend = true, .per_service = true}}},
      // Fig. 1c: the entry writes an opaque tenant tag that one shared LB
      // stage matches next to ip_src.
      {"metadata",
       {{.name = "gwlb.services",
         .cells = {kGwlbIpDst, kGwlbTcpDst, kServiceTag},
         .link = StageLink::kNext},
        {.name = "gwlb.lb", .cells = {kServiceTag, kGwlbIpSrc, kGwlbOut},
         .row_per_backend = true}}},
      // Fig. 1d: the LB stage re-matches ip_dst but not tcp_dst. The join
      // is lossless only because ip_dst → tcp_dst (Theorem 1 applied).
      {"rematch",
       {{.name = "gwlb.services", .cells = {kGwlbIpDst, kGwlbTcpDst},
         .link = StageLink::kNext},
        {.name = "gwlb.lb", .cells = {kGwlbIpSrc, kGwlbIpDst, kGwlbOut},
         .row_per_backend = true}}},
  }};
  const core::Schema universal = gwlb_universal_schema();
  for (RepresentationDescriptor& d : rows) {
    for (std::size_t k = 0; k < d.stages.size(); ++k) {
      StageDescriptor& sd = d.stages[k];
      expects(sd.cells.size() <= StageRow{}.size(), "stage row too wide");
      for (const std::size_t source : sd.cells) {
        sd.schema.add(source == kServiceTag
                          ? core::Attribute{"meta.tenant",
                                            k == 0 ? core::AttrKind::kAction
                                                   : core::AttrKind::kMatch,
                                            core::ValueCodec::kPlain, 16}
                          : universal.at(source));
      }
    }
  }
  return rows;
}

/// The universal columns the cells of `columns` of `stage` project.
AttrSet universal_columns(const StageDescriptor& stage, AttrSet columns) {
  AttrSet out;
  for (const std::size_t c : columns) {
    if (stage.cells[c] != kServiceTag) out.insert(stage.cells[c]);
  }
  return out;
}

}  // namespace

std::size_t RepresentationDescriptor::table_of(
    std::size_t stage, std::size_t s, std::size_t services) const noexcept {
  std::size_t table = 0;
  for (std::size_t k = 0; k < stage; ++k) {
    table += stages[k].per_service ? services : 1;
  }
  return stages[stage].per_service ? table + s : table;
}

const RepresentationDescriptor& descriptor(Representation repr) {
  static const std::array<RepresentationDescriptor, 4> rows =
      build_descriptors();
  const auto row = static_cast<std::size_t>(repr);
  expects(row < rows.size(), "unknown representation");
  return rows[row];
}

std::string_view to_string(Representation repr) noexcept {
  return descriptor(repr).name;
}

std::optional<Representation> parse_representation(std::string_view name) {
  for (const Representation repr :
       {Representation::kUniversal, Representation::kGoto,
        Representation::kMetadata, Representation::kRematch}) {
    if (descriptor(repr).name == name) return repr;
  }
  return std::nullopt;
}

core::Stage emit_table(const workloads::Gwlb& gwlb, Representation repr,
                       std::size_t stage, std::size_t copy) {
  const RepresentationDescriptor& d = descriptor(repr);
  expects(stage < d.stages.size(), "stage index out of range");
  const StageDescriptor& sd = d.stages[stage];
  const std::size_t n = gwlb.services.size();
  expects(copy < (sd.per_service ? n : 1), "table copy out of range");
  std::string name(sd.name);
  if (sd.per_service) name += std::to_string(copy);
  core::Stage out{sd.reuses_universal
                      ? gwlb.universal
                      : core::Table(std::move(name), sd.schema),
                  {},
                  {}};
  if (sd.link == StageLink::kNext) out.next = d.table_of(stage + 1, 0, n);
  if (sd.reuses_universal) return out;
  // A per-service table holds its own service's rows; a shared one holds
  // every service's, in service order.
  const std::size_t first = sd.per_service ? copy : 0;
  const std::size_t last = sd.per_service ? copy + 1 : n;
  for (std::size_t s = first; s < last; ++s) {
    for_each_row(sd, gwlb.services[s], s,
                 [&](std::span<const core::Value> row) {
                   out.table.add_row(row);
                   if (sd.link == StageLink::kGotoPerService) {
                     out.goto_targets.push_back(d.table_of(stage + 1, s, n));
                   }
                 });
  }
  return out;
}

core::Pipeline pipeline_for(const workloads::Gwlb& gwlb, Representation repr) {
  const RepresentationDescriptor& d = descriptor(repr);
  const std::size_t n = gwlb.services.size();
  core::Pipeline pipeline;
  // Tables are added in table_of order. A removed service keeps its
  // (empty, unreachable) per-service table, so table indices stay stable
  // across intents.
  for (std::size_t k = 0; k < d.stages.size(); ++k) {
    for (std::size_t c = 0; c < (d.stages[k].per_service ? n : 1); ++c) {
      pipeline.add_stage(emit_table(gwlb, repr, k, c));
    }
  }
  return pipeline;
}

std::vector<AttrSet> decomposition_components(
    Representation repr, const core::Schema& universal_schema) {
  expects(universal_schema == workloads::gwlb_universal_schema(),
          "decomposition components are over the gwlb universal schema");
  const RepresentationDescriptor& d = descriptor(repr);
  const StageDescriptor& entry = d.stages.front();
  const AttrSet selector = universal_columns(entry, entry.schema.match_set());
  std::vector<AttrSet> components;
  for (std::size_t k = 0; k < d.stages.size(); ++k) {
    const StageDescriptor& sd = d.stages[k];
    AttrSet component = universal_columns(sd, sd.schema.all());
    bool matches_tag = false;
    for (const std::size_t c : sd.schema.match_set()) {
      matches_tag |= sd.cells[c] == kServiceTag;
    }
    const bool goto_entered =
        k > 0 && d.stages[k - 1].link == StageLink::kGotoPerService;
    if (matches_tag || goto_entered) component |= selector;
    components.push_back(component);
  }
  return components;
}

}  // namespace maton::cp
