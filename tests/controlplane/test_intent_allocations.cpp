// Heap allocations on the intent path. The binary replaces the global
// operator new / operator delete with counting versions and pins how
// often a warm binding allocates inside compile_intent, per
// representation, with and without symbolic verification, and that
// ESwitch applies the returned updates without allocating.
//
// What a warm verify-off intent may still allocate: the returned update
// vector, and core::Column::set interning a universal-table value the
// column has not seen (until the column spills). Everything else on the
// path (slices, patch rows, the diff, the proof reference and the
// prover's per-check buffers) reuses storage the binding owns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "controlplane/churn.hpp"
#include "controlplane/compiler.hpp"
#include "dataplane/switch.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  return p;
}

// Out of line, so the compiler does not pair the free with a new
// expression it can see.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

/// Allocations made by `body` on any thread.
template <typename Body>
std::size_t count_allocations(Body&& body) {
  const std::size_t before = allocations.load(std::memory_order_relaxed);
  counting.store(true, std::memory_order_relaxed);
  body();
  counting.store(false, std::memory_order_relaxed);
  return allocations.load(std::memory_order_relaxed) - before;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size, alignof(std::max_align_t))) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_alloc(size, static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}

namespace maton::cp {
namespace {

constexpr std::size_t kWarmupIntents = 200;
constexpr std::size_t kIntents = 1000;

struct Tally {
  std::size_t compile = 0;  ///< allocations inside compile_intent
  std::size_t apply = 0;    ///< allocations inside ESwitch apply_updates
};

/// Whether `intent` would give its service a VIP another live service
/// holds: the collision paths (an isolation proof, or a full rebuild) are
/// not what this binary measures.
bool collides(const Intent& intent, const workloads::Gwlb& model) {
  const auto* reip = std::get_if<ChangeServiceIp>(&intent);
  if (reip == nullptr) return false;
  for (std::size_t s = 0; s < model.services.size(); ++s) {
    if (s != reip->service && model.services[s].vip == reip->new_vip &&
        !model.services[s].src_prefixes.empty()) {
      return true;
    }
  }
  return false;
}

/// 100 services × 8 backends, mixed intents without VIP collisions:
/// kWarmupIntents uncounted, then kIntents counted.
Tally run(Representation repr, VerifyMode verify) {
  GwlbBinding binding(workloads::make_gwlb({.num_services = 100,
                                            .num_backends = 8}),
                      repr, CompileMode::kIncremental, AnalyzeMode::kOff,
                      verify);
  auto sw = dp::make_eswitch_model();
  EXPECT_TRUE(sw->load(binding.program()).is_ok());
  Rng rng(11);
  MixedChurnConfig mix;
  mix.vip_collision_probability = 0.0;
  Tally tally;
  for (std::size_t i = 0; i < kWarmupIntents + kIntents; ++i) {
    Intent intent = draw_mixed_intent(rng, binding.gwlb(), mix);
    while (collides(intent, binding.gwlb())) {
      intent = draw_mixed_intent(rng, binding.gwlb(), mix);
    }
    const bool counted = i >= kWarmupIntents;
    std::optional<Result<std::vector<dp::RuleUpdate>>> updates;
    const std::size_t compile = count_allocations(
        [&] { updates.emplace(binding.compile_intent(intent)); });
    EXPECT_TRUE(updates->is_ok()) << to_string(intent);
    if (!updates->is_ok()) break;
    Status applied;
    const std::size_t apply = count_allocations(
        [&] { applied = sw->apply_updates(updates->value()); });
    EXPECT_TRUE(applied.is_ok()) << to_string(intent);
    if (counted) {
      tally.compile += compile;
      tally.apply += apply;
    }
  }
  EXPECT_EQ(sw->program(), binding.program());
  if (verify == VerifyMode::kSymbolic) {
    EXPECT_EQ(binding.verify_stats().failed, 0u);
    EXPECT_EQ(binding.verify_stats().unknown, 0u);
  }
  return tally;
}

class IntentAllocations : public ::testing::TestWithParam<Representation> {};

TEST_P(IntentAllocations, AWarmIntentAllocatesAlmostNothingWithVerifyOff) {
  const Tally tally = run(GetParam(), VerifyMode::kOff);
  const double per_intent =
      static_cast<double>(tally.compile) / static_cast<double>(kIntents);
  EXPECT_LE(per_intent, 2.0) << tally.compile << " allocations";
  EXPECT_EQ(tally.apply, 0u);
}

TEST_P(IntentAllocations, AWarmVerifiedIntentAllocatesLittle) {
  const Tally tally = run(GetParam(), VerifyMode::kSymbolic);
  const double per_intent =
      static_cast<double>(tally.compile) / static_cast<double>(kIntents);
  EXPECT_LT(per_intent, 20.0) << tally.compile << " allocations";
  EXPECT_EQ(tally.apply, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllRepresentations, IntentAllocations,
    ::testing::Values(Representation::kUniversal, Representation::kGoto,
                      Representation::kMetadata, Representation::kRematch),
    [](const ::testing::TestParamInfo<Representation>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace maton::cp
