// Golden pin of the programs each gwlb representation compiles to.
//
// The incremental-vs-full differential (test_incremental_compile) holds
// the two compile paths to each other, but both read the same
// representation descriptor, so it cannot notice the descriptor itself
// changing what is emitted. This test pins a digest of
// dp::compile(pipeline_for(...)) for every representation on the paper
// example, on a seeded 20×8 instance and on the paper example after a
// service removal, together with the decomposition components the safety
// analysis is handed. The digests
// cover the entry table, every table's name, `next` and field list, and
// every rule's priority, matches, actions and goto target, in order.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "controlplane/compiler.hpp"
#include "dataplane/program.hpp"

namespace maton::cp {
namespace {

/// FNV-1a over 64-bit words: stable across platforms and builds.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) noexcept {
    add(s.size());
    for (const char c : s) add(static_cast<unsigned char>(c));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t program_digest(const dp::Program& program) {
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  Digest d;
  d.add(program.entry);
  d.add(program.tables.size());
  for (const dp::TableSpec& table : program.tables) {
    d.add(table.name);
    d.add(table.next.value_or(kNone));
    d.add(table.fields.size());
    for (const dp::FieldId f : table.fields) d.add(dp::field_index(f));
    d.add(table.rules.size());
    for (std::size_t i = 0; i < table.rules.size(); ++i) {
      const dp::Rule rule = table.rules[i];
      d.add(rule.priority);
      d.add(rule.matches.size());
      for (const dp::FieldMatch& m : rule.matches) {
        d.add(dp::field_index(m.field));
        d.add(m.value);
        d.add(m.mask);
      }
      d.add(rule.actions.size());
      for (const dp::Action& a : rule.actions) {
        d.add(static_cast<std::uint64_t>(a.kind));
        d.add(dp::field_index(a.field));
        d.add(a.value);
        d.add(a.width_bits);
      }
      d.add(rule.goto_table.value_or(kNone));
    }
  }
  return d.value();
}

struct Golden {
  Representation repr;
  std::uint64_t paper_digest;
  std::size_t paper_rules;
  std::uint64_t fleet_digest;
  std::size_t fleet_rules;
  /// The paper example after RemoveService{1}, compiled by the full
  /// rebuild: pins what a removed service leaves behind.
  std::uint64_t removed_digest;
  std::size_t removed_rules;
  /// decomposition_components as raw bitsets over the universal schema.
  std::vector<std::uint64_t> components;
};

// Universal-schema columns: ip_src = bit 0, ip_dst = 1, tcp_dst = 2,
// out = 3.
constexpr std::uint64_t kAll = 0b1111;
constexpr std::uint64_t kSelector = 0b0110;  // ip_dst, tcp_dst
constexpr std::uint64_t kAllButTcpDst = 0b1011;

const Golden kGolden[] = {
    {Representation::kUniversal, 0x1731e8e81881d5a6ULL, 6,
     0x7582257e9799992dULL, 160, 0xc36b39c999dc9a3eULL, 3, {kAll}},
    {Representation::kGoto, 0xbdc12af480a8c67cULL, 9, 0xe02370512645cdbfULL,
     180, 0x390630a02c7a3965ULL, 5, {kSelector, kAll}},
    {Representation::kMetadata, 0x95b08d452aa53d82ULL, 9,
     0xa1fb2ed2532f863cULL, 180, 0x2aa1bd2fb72bc14eULL, 5,
     {kSelector, kAll}},
    {Representation::kRematch, 0x275a1c5a81d53cf9ULL, 9,
     0xdbbc469f0a974d99ULL, 180, 0x33ee53374f3e49b5ULL, 5,
     {kSelector, kAllButTcpDst}},
};

dp::Program compiled(const workloads::Gwlb& gwlb, Representation repr) {
  auto program = dp::compile(pipeline_for(gwlb, repr));
  EXPECT_TRUE(program.is_ok()) << program.status().to_string();
  return std::move(program).value();
}

TEST(RepresentationGolden, PaperExamplePrograms) {
  const workloads::Gwlb gwlb = workloads::make_paper_example();
  for (const Golden& g : kGolden) {
    const dp::Program program = compiled(gwlb, g.repr);
    EXPECT_EQ(program.total_rules(), g.paper_rules) << to_string(g.repr);
    EXPECT_EQ(program_digest(program), g.paper_digest)
        << to_string(g.repr) << std::hex << " digest 0x"
        << program_digest(program);
  }
}

TEST(RepresentationGolden, SeededFleetPrograms) {
  const workloads::Gwlb gwlb = workloads::make_gwlb(
      {.num_services = 20, .num_backends = 8, .seed = 1});
  for (const Golden& g : kGolden) {
    const dp::Program program = compiled(gwlb, g.repr);
    EXPECT_EQ(program.total_rules(), g.fleet_rules) << to_string(g.repr);
    EXPECT_EQ(program_digest(program), g.fleet_digest)
        << to_string(g.repr) << std::hex << " digest 0x"
        << program_digest(program);
  }
}

TEST(RepresentationGolden, PaperExampleAfterRemoval) {
  for (const Golden& g : kGolden) {
    GwlbBinding binding(workloads::make_paper_example(), g.repr,
                        CompileMode::kFullRebuild);
    ASSERT_TRUE(binding.compile_intent(RemoveService{.service = 1}).is_ok());
    const dp::Program& program = binding.program();
    EXPECT_EQ(program.total_rules(), g.removed_rules) << to_string(g.repr);
    EXPECT_EQ(program_digest(program), g.removed_digest)
        << to_string(g.repr) << std::hex << " digest 0x"
        << program_digest(program);
  }
}

TEST(RepresentationGolden, DecompositionComponents) {
  const core::Schema schema = workloads::gwlb_universal_schema();
  for (const Golden& g : kGolden) {
    std::vector<std::uint64_t> raw;
    for (const core::AttrSet& c : decomposition_components(g.repr, schema)) {
      raw.push_back(c.raw());
    }
    EXPECT_EQ(raw, g.components) << to_string(g.repr);
  }
}

}  // namespace
}  // namespace maton::cp
