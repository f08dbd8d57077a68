// Packet-set denotational semantics of the NetKAT fragment:
//   ⟦p⟧ : Packet → P(Packet)
// drop ↦ ∅; id ↦ {pkt}; (f = v) ↦ {pkt} if pkt.f = v else ∅ (an absent
// field fails the test); (f ← v) ↦ {pkt[f := v]}; (a; b) ↦ ⋃ ⟦b⟧ over
// ⟦a⟧; (a + b) ↦ ⟦a⟧ ∪ ⟦b⟧.
#pragma once

#include <set>
#include <span>

#include "core/pipeline.hpp"
#include "netkat/policy.hpp"

namespace maton::netkat {

/// A packet is a record of field → value bindings (shared with the core
/// pipeline layer).
using Packet = core::PacketState;
using PacketSet = std::set<Packet>;

/// Evaluates `policy` on one input packet.
[[nodiscard]] PacketSet eval(const PolicyPtr& policy, const Packet& packet);

/// Semantic equivalence over a finite probe universe: ⟦a⟧(pkt) = ⟦b⟧(pkt)
/// for every probe packet.
[[nodiscard]] bool equivalent_on(const PolicyPtr& a, const PolicyPtr& b,
                                 std::span<const Packet> probes);

}  // namespace maton::netkat
