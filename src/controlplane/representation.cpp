#include "controlplane/representation.hpp"

#include <array>
#include <string>

#include "util/contract.hpp"

namespace maton::cp {

using core::AttrSet;
using core::Row;
using workloads::GwlbService;

namespace {

// Per-service row emitters. Every decomposition states a live service
// once in its entry stage and once per backend in its LB stage.

std::vector<Row> universal_rows(const GwlbService& svc, std::size_t) {
  return workloads::gwlb_universal_rows(svc);
}

std::vector<Row> service_rows(const GwlbService& svc, std::size_t) {
  if (svc.src_prefixes.empty()) return {};
  return {{svc.vip, svc.port}};
}

/// The metadata join's entry also writes the tenant tag `s`.
std::vector<Row> tagging_service_rows(const GwlbService& svc, std::size_t s) {
  if (svc.src_prefixes.empty()) return {};
  return {{svc.vip, svc.port, s}};
}

template <typename Cells>
std::vector<Row> per_backend(const GwlbService& svc, Cells cells) {
  std::vector<Row> rows;
  rows.reserve(svc.src_prefixes.size());
  for (std::size_t b = 0; b < svc.src_prefixes.size(); ++b) {
    rows.push_back(cells(b));
  }
  return rows;
}

std::vector<Row> lb_rows(const GwlbService& svc, std::size_t) {
  return per_backend(svc, [&svc](std::size_t b) -> Row {
    return {svc.src_prefixes[b], svc.backends[b]};
  });
}

std::vector<Row> tagged_lb_rows(const GwlbService& svc, std::size_t s) {
  return per_backend(svc, [&svc, s](std::size_t b) -> Row {
    return {s, svc.src_prefixes[b], svc.backends[b]};
  });
}

std::vector<Row> rematch_lb_rows(const GwlbService& svc, std::size_t) {
  return per_backend(svc, [&svc](std::size_t b) -> Row {
    return {svc.src_prefixes[b], svc.vip, svc.backends[b]};
  });
}

core::Schema schema_of(std::initializer_list<core::Attribute> attrs) {
  core::Schema schema;
  for (const core::Attribute& attr : attrs) schema.add(attr);
  return schema;
}

/// Rows in Representation order.
std::array<RepresentationDescriptor, 4> build_descriptors() {
  using namespace workloads;
  const core::Schema universal = gwlb_universal_schema();
  const core::Attribute& ip_src = universal.at(kGwlbIpSrc);
  const core::Attribute& ip_dst = universal.at(kGwlbIpDst);
  const core::Attribute& tcp_dst = universal.at(kGwlbTcpDst);
  const core::Attribute& out = universal.at(kGwlbOut);
  const core::Attribute tag_write{"meta.tenant", core::AttrKind::kAction,
                                  core::ValueCodec::kPlain, 16};
  const core::Attribute tag_match{"meta.tenant", core::AttrKind::kMatch,
                                  core::ValueCodec::kPlain, 16};
  const AttrSet all = universal.all();
  const AttrSet selector =
      AttrSet::single(kGwlbIpDst) | AttrSet::single(kGwlbTcpDst);

  return {{
      // Fig. 1a: the universal table itself.
      {"universal",
       {{.name = "gwlb.universal", .schema = universal,
         .rows = universal_rows, .reuses_universal = true}},
       {all}},
      // Fig. 1b: the entry jumps to a per-service LB table via goto_table.
      // The LB stage is entered with the full selector context (the goto
      // target is a function of ip_dst and tcp_dst), so its effective
      // attribute set is the whole schema.
      {"goto",
       {{.name = "gwlb.services", .schema = schema_of({ip_dst, tcp_dst}),
         .rows = service_rows, .link = StageLink::kGotoPerService},
        {.name = "gwlb.lb", .schema = schema_of({ip_src, out}),
         .rows = lb_rows, .per_service = true}},
       {selector, all}},
      // Fig. 1c: the entry writes an opaque tenant tag that one shared LB
      // stage matches next to ip_src. As for goto, the tag is a function
      // of the selector, so the LB stage carries the whole schema.
      {"metadata",
       {{.name = "gwlb.services",
         .schema = schema_of({ip_dst, tcp_dst, tag_write}),
         .rows = tagging_service_rows, .link = StageLink::kNext},
        {.name = "gwlb.lb", .schema = schema_of({tag_match, ip_src, out}),
         .rows = tagged_lb_rows}},
       {selector, all}},
      // Fig. 1d: the LB stage re-matches ip_dst but not tcp_dst. The join
      // is lossless only because ip_dst → tcp_dst (Theorem 1 applied).
      {"rematch",
       {{.name = "gwlb.services", .schema = schema_of({ip_dst, tcp_dst}),
         .rows = service_rows, .link = StageLink::kNext},
        {.name = "gwlb.lb", .schema = schema_of({ip_src, ip_dst, out}),
         .rows = rematch_lb_rows}},
       {selector, all - AttrSet::single(kGwlbTcpDst)}},
  }};
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
    for (Row& row : sd.rows(gwlb.services[s], s)) {
      out.table.add_row(std::move(row));
      if (sd.link == StageLink::kGotoPerService) {
        out.goto_targets.push_back(d.table_of(stage + 1, s, n));
      }
    }
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
  return descriptor(repr).components;
}

}  // namespace maton::cp
