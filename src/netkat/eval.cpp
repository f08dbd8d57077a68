#include "netkat/eval.hpp"

#include "util/contract.hpp"

namespace maton::netkat {

PacketSet eval(const PolicyPtr& policy, const Packet& packet) {
  expects(policy != nullptr, "eval of null policy");
  switch (policy->kind()) {
    case Policy::Kind::kDrop:
      return {};
    case Policy::Kind::kId:
      return {packet};
    case Policy::Kind::kTest: {
      const auto it = packet.find(policy->field());
      if (it != packet.end() && it->second == policy->value()) {
        return {packet};
      }
      return {};
    }
    case Policy::Kind::kMod: {
      Packet out = packet;
      out[policy->field()] = policy->value();
      return {std::move(out)};
    }
    case Policy::Kind::kSeq: {
      PacketSet result;
      for (const Packet& mid : eval(policy->left(), packet)) {
        PacketSet rhs = eval(policy->right(), mid);
        result.merge(rhs);
      }
      return result;
    }
    case Policy::Kind::kPar: {
      PacketSet result = eval(policy->left(), packet);
      PacketSet rhs = eval(policy->right(), packet);
      result.merge(rhs);
      return result;
    }
  }
  return {};
}

bool equivalent_on(const PolicyPtr& a, const PolicyPtr& b,
                   std::span<const Packet> probes) {
  for (const Packet& p : probes) {
    if (eval(a, p) != eval(b, p)) return false;
  }
  return true;
}

}  // namespace maton::netkat
