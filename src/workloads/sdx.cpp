#include "workloads/sdx.hpp"

#include "util/format.hpp"

namespace maton::workloads {

using core::Row;
using core::Schema;
using core::Table;
using core::Value;
using core::ValueCodec;

namespace {

constexpr Value prefix_token(std::uint32_t addr, unsigned len) {
  return (static_cast<Value>(addr) << 8) | len;
}

const Value kP1 = prefix_token(ipv4(11, 1, 0, 0), 16);
const Value kP2 = prefix_token(ipv4(11, 2, 0, 0), 16);
constexpr Value kHttp = 80;
constexpr Value kOtherPort = 0;

// Announcement sets encoded as bitmasks: bit 0 = C, bit 1 = D.
constexpr Value kAnnCAndD = 0b11;
constexpr Value kAnnDOnly = 0b10;

// Member choice carried between the outbound and inbound stages.
constexpr Value kMemberC = 100;
constexpr Value kMemberD = 101;

}  // namespace

Sdx make_sdx_example() {
  Sdx sdx;

  // --- Fig. 5a: the collapsed universal policy table. ---
  Schema uni;
  uni.add_match("ip_dst", ValueCodec::kIpv4Prefix, 32);
  uni.add_match("tcp_dst", ValueCodec::kPort, 16);
  uni.add_match("hash", ValueCodec::kPlain, 1);
  uni.add_action("out", ValueCodec::kPort, 16);
  sdx.universal = Table("sdx.universal", std::move(uni));
  // A prefers C for HTTP to prefixes C announces (P1); C balances its
  // ingress across C1/C2 on the hash bit; everything else goes to D.
  sdx.universal.add_row(Row{kP1, kHttp, 0, kSdxC1});
  sdx.universal.add_row(Row{kP1, kHttp, 1, kSdxC2});
  sdx.universal.add_row(Row{kP1, kOtherPort, 0, kSdxD});
  sdx.universal.add_row(Row{kP1, kOtherPort, 1, kSdxD});
  sdx.universal.add_row(Row{kP2, kHttp, 0, kSdxD});
  sdx.universal.add_row(Row{kP2, kHttp, 1, kSdxD});
  sdx.universal.add_row(Row{kP2, kOtherPort, 0, kSdxD});
  sdx.universal.add_row(Row{kP2, kOtherPort, 1, kSdxD});

  // --- Fig. 5b chained naively: incorrect. ---
  // T_an and T_out are fine, but C's inbound table, written on its own,
  // must decide between "balance to C1/C2" and "this is really D's
  // traffic" with no knowledge of the outbound choice: duplicate match
  // keys, not order-independent.
  {
    Schema an;
    an.add_match("ip_dst", ValueCodec::kIpv4Prefix, 32);
    an.add_action("meta.an", ValueCodec::kPlain, 8);
    Table t_an("sdx.an", std::move(an));
    t_an.add_row(Row{kP1, kAnnCAndD});
    t_an.add_row(Row{kP2, kAnnDOnly});

    Schema out;
    out.add_match("meta.an", ValueCodec::kPlain, 8);
    out.add_match("tcp_dst", ValueCodec::kPort, 16);
    Table t_out("sdx.out", std::move(out));
    t_out.add_row(Row{kAnnCAndD, kHttp});
    t_out.add_row(Row{kAnnCAndD, kOtherPort});
    t_out.add_row(Row{kAnnDOnly, kHttp});
    t_out.add_row(Row{kAnnDOnly, kOtherPort});

    Schema in;
    in.add_match("ip_dst", ValueCodec::kIpv4Prefix, 32);
    in.add_match("hash", ValueCodec::kPlain, 1);
    in.add_action("out", ValueCodec::kPort, 16);
    Table t_in("sdx.in", std::move(in));
    t_in.add_row(Row{kP1, 0, kSdxC1});  // C's balancing view of P1...
    t_in.add_row(Row{kP1, 1, kSdxC2});
    t_in.add_row(Row{kP1, 0, kSdxD});   // ...collides with the BGP default
    t_in.add_row(Row{kP1, 1, kSdxD});
    t_in.add_row(Row{kP2, 0, kSdxD});
    t_in.add_row(Row{kP2, 1, kSdxD});

    const std::size_t s0 = sdx.broken.add_stage({std::move(t_an), {}, {}});
    const std::size_t s1 = sdx.broken.add_stage({std::move(t_out), {}, {}});
    const std::size_t s2 = sdx.broken.add_stage({std::move(t_in), {}, {}});
    sdx.broken.stage(s0).next = s1;
    sdx.broken.stage(s1).next = s2;
    sdx.broken.set_entry(s0);
  }

  // --- Fig. 5c: the metadata repair. ---
  // The outbound stage materializes its member choice into an explicit
  // field the inbound stage can match on.
  {
    Schema an;
    an.add_match("ip_dst", ValueCodec::kIpv4Prefix, 32);
    an.add_action("meta.an", ValueCodec::kPlain, 8);
    Table t_an("sdx.an", std::move(an));
    t_an.add_row(Row{kP1, kAnnCAndD});
    t_an.add_row(Row{kP2, kAnnDOnly});

    Schema out;
    out.add_match("meta.an", ValueCodec::kPlain, 8);
    out.add_match("tcp_dst", ValueCodec::kPort, 16);
    out.add_action("meta.member", ValueCodec::kPlain, 8);
    Table t_out("sdx.out", std::move(out));
    t_out.add_row(Row{kAnnCAndD, kHttp, kMemberC});
    t_out.add_row(Row{kAnnCAndD, kOtherPort, kMemberD});
    t_out.add_row(Row{kAnnDOnly, kHttp, kMemberD});
    t_out.add_row(Row{kAnnDOnly, kOtherPort, kMemberD});

    Schema in;
    in.add_match("meta.member", ValueCodec::kPlain, 8);
    in.add_match("hash", ValueCodec::kPlain, 1);
    in.add_action("out", ValueCodec::kPort, 16);
    Table t_in("sdx.in", std::move(in));
    t_in.add_row(Row{kMemberC, 0, kSdxC1});
    t_in.add_row(Row{kMemberC, 1, kSdxC2});
    t_in.add_row(Row{kMemberD, 0, kSdxD});
    t_in.add_row(Row{kMemberD, 1, kSdxD});

    const std::size_t s0 = sdx.repaired.add_stage({std::move(t_an), {}, {}});
    const std::size_t s1 = sdx.repaired.add_stage({std::move(t_out), {}, {}});
    const std::size_t s2 = sdx.repaired.add_stage({std::move(t_in), {}, {}});
    sdx.repaired.stage(s0).next = s1;
    sdx.repaired.stage(s1).next = s2;
    sdx.repaired.set_entry(s0);
  }

  return sdx;
}

}  // namespace maton::workloads
