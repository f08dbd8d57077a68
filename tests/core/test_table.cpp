#include "core/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/format.hpp"

namespace maton::core {
namespace {

Schema make_schema() {
  Schema s;
  s.add_match("a");
  s.add_match("b");
  s.add_action("c");
  return s;
}

TEST(Schema, AddAndLookup) {
  Schema s = make_schema();
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.index_of("b"), 1u);
  EXPECT_EQ(s.find("missing"), std::nullopt);
  EXPECT_EQ(s.at(2).kind, AttrKind::kAction);
  EXPECT_THROW(s.add({"a", AttrKind::kMatch, ValueCodec::kPlain, 32}),
               ContractViolation);
  EXPECT_THROW(s.add({"", AttrKind::kMatch, ValueCodec::kPlain, 32}),
               ContractViolation);
}

TEST(Schema, MatchAndActionSets) {
  Schema s = make_schema();
  EXPECT_EQ(s.match_set(), (AttrSet{0, 1}));
  EXPECT_EQ(s.action_set(), AttrSet{2});
  EXPECT_EQ(s.all(), (AttrSet{0, 1, 2}));
}

TEST(Schema, ProjectKeepsOrderAndReportsOrigin) {
  Schema s = make_schema();
  std::vector<std::size_t> old_cols;
  Schema p = s.project(AttrSet{0, 2}, &old_cols);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(0).name, "a");
  EXPECT_EQ(p.at(1).name, "c");
  EXPECT_EQ(old_cols, (std::vector<std::size_t>{0, 2}));
}

TEST(Schema, Names) {
  Schema s = make_schema();
  EXPECT_EQ(s.names(AttrSet{0, 2}), "a, c");
  EXPECT_EQ(s.names(AttrSet{}), "");
}

TEST(Table, AddRowValidatesWidth) {
  Table t("t", make_schema());
  t.add_row(core::Row{1, 2, 3});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_THROW(t.add_row(core::Row{1, 2}), ContractViolation);
  EXPECT_EQ(t.at(0, 2), 3u);
  EXPECT_THROW((void)t.at(1, 0), ContractViolation);
}

TEST(Table, ProjectionDeduplicates) {
  Table t("t", make_schema());
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{1, 20, 100});
  t.add_row(core::Row{2, 10, 200});
  Table p = t.project(AttrSet{0, 2});
  EXPECT_EQ(p.num_rows(), 2u);  // (1,100) appears twice, merged
  EXPECT_EQ(p.num_cols(), 2u);
  EXPECT_EQ(p.at(0, 0), 1u);
  EXPECT_EQ(p.at(0, 1), 100u);
}

TEST(Table, SelectEq) {
  Table t("t", make_schema());
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{1, 20, 200});
  t.add_row(core::Row{2, 10, 300});
  Table s = t.select_eq(0, 1);
  EXPECT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.at(1, 2), 200u);
}

TEST(Table, UniqueOnAndOrderIndependence) {
  Table t("t", make_schema());
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{1, 20, 100});
  EXPECT_TRUE(t.is_order_independent());
  EXPECT_TRUE(t.unique_on(AttrSet{0, 1}));
  EXPECT_FALSE(t.unique_on(AttrSet{0}));
  EXPECT_FALSE(t.unique_on(AttrSet{2}));  // both rows have c=100

  t.add_row(core::Row{1, 10, 999});  // duplicate match key
  EXPECT_FALSE(t.is_order_independent());
}

TEST(Table, EmptyColumnSetUniqueOnlyForSingleRow) {
  Table t("t", make_schema());
  EXPECT_TRUE(t.unique_on(AttrSet{}));
  t.add_row(core::Row{1, 2, 3});
  EXPECT_TRUE(t.unique_on(AttrSet{}));
  t.add_row(core::Row{4, 5, 6});
  EXPECT_FALSE(t.unique_on(AttrSet{}));
}

TEST(Table, FindRow) {
  Table t("t", make_schema());
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{2, 20, 200});
  const Value key[] = {2, 20};
  EXPECT_EQ(t.find_row(AttrSet{0, 1}, key), std::optional<std::size_t>{1});
  const Value miss[] = {2, 21};
  EXPECT_EQ(t.find_row(AttrSet{0, 1}, miss), std::nullopt);
  const Value single[] = {10};
  EXPECT_EQ(t.find_row(AttrSet{1}, single), std::optional<std::size_t>{0});
}

TEST(Table, FieldCountMatchesPaperArithmetic) {
  // §2: a table with r entries over k attributes holds r*k fields.
  Table t("t", make_schema());
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{2, 20, 200});
  EXPECT_EQ(t.field_count(), 6u);
}

TEST(Table, DistinctCount) {
  Table t("t", make_schema());
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{1, 20, 100});
  t.add_row(core::Row{2, 10, 100});
  EXPECT_EQ(t.distinct_count(AttrSet{0}), 2u);
  EXPECT_EQ(t.distinct_count(AttrSet{2}), 1u);
  EXPECT_EQ(t.distinct_count(AttrSet{0, 1}), 3u);
}

TEST(Table, FormatValueUsesCodec) {
  Attribute ip{"ip", AttrKind::kMatch, ValueCodec::kIpv4, 32};
  EXPECT_EQ(format_value(ip, ipv4(192, 0, 2, 1)), "192.0.2.1");
  Attribute pfx{"p", AttrKind::kMatch, ValueCodec::kIpv4Prefix, 32};
  EXPECT_EQ(format_value(pfx, (Value{ipv4(10, 0, 0, 0)} << 8) | 8),
            "10.0.0.0/8");
  Attribute mac{"m", AttrKind::kAction, ValueCodec::kMac, 48};
  EXPECT_EQ(format_value(mac, 0x0000deadbeef0102ULL), "de:ad:be:ef:01:02");
  Attribute plain{"x", AttrKind::kMatch, ValueCodec::kPlain, 32};
  EXPECT_EQ(format_value(plain, 42), "42");
}

TEST(Table, ToStringMarksActions) {
  Table t("demo", make_schema());
  t.add_row(core::Row{1, 2, 3});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("c!"), std::string::npos);  // actions are marked with !
}

TEST(Table, ToStringElidesLargeTables) {
  Table t("big", make_schema());
  const std::size_t n = Table::kRenderHead + Table::kRenderTail + 10;
  for (std::size_t r = 0; r < n; ++r) {
    t.add_row(core::Row{r, r + 1, r + 2});
  }
  const std::string s = t.to_string();
  EXPECT_NE(s.find("(" + std::to_string(n) + " entries)"), std::string::npos);
  EXPECT_NE(s.find("(10 more rows)"), std::string::npos);
  // Head rows and tail rows render; the elided middle does not.
  EXPECT_NE(s.find(std::to_string(Table::kRenderHead - 1)),
            std::string::npos);
  EXPECT_NE(s.find(std::to_string(n - 1)), std::string::npos);
  // Rendered line count is bounded: header + head + marker + tail.
  const std::size_t lines =
      static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
  EXPECT_EQ(lines, 1 + 1 + Table::kRenderHead + 1 + Table::kRenderTail);
}

TEST(Table, ToStringDoesNotElideAtThreshold) {
  Table t("edge", make_schema());
  for (std::size_t r = 0; r < Table::kRenderHead + Table::kRenderTail; ++r) {
    t.add_row(core::Row{r, r, r});
  }
  EXPECT_EQ(t.to_string().find("more rows"), std::string::npos);
}

TEST(Table, CachedFingerprintTracksMutation) {
  Table t("fp", make_schema());
  t.add_row(core::Row{1, 2, 3});
  t.add_row(core::Row{4, 5, 6});
  const std::uint64_t base_c0 = t.column_fingerprint(0);
  const std::uint64_t base_c1 = t.column_fingerprint(1);
  const std::uint64_t base_tab = t.fingerprint();

  t.set_value(0, 0, 9);
  EXPECT_NE(t.column_fingerprint(0), base_c0);
  EXPECT_EQ(t.column_fingerprint(1), base_c1);  // untouched column stays
  EXPECT_NE(t.fingerprint(), base_tab);

  t.set_value(0, 0, 1);  // restore: fingerprints must round-trip
  EXPECT_EQ(t.column_fingerprint(0), base_c0);
  EXPECT_EQ(t.fingerprint(), base_tab);

  // Appending folds into warm column fingerprints; the result must equal
  // a cold recompute on an identical table.
  t.add_row(core::Row{7, 8, 9});
  Table fresh("fp", make_schema());
  fresh.add_row(core::Row{1, 2, 3});
  fresh.add_row(core::Row{4, 5, 6});
  fresh.add_row(core::Row{7, 8, 9});
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(t.column_fingerprint(c), fresh.column_fingerprint(c));
  }
  EXPECT_EQ(t.fingerprint(), fresh.fingerprint());
}

}  // namespace
}  // namespace maton::core
