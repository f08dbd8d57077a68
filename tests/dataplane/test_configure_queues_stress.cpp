// Concurrency stress for SwitchModel::configure_queues within its
// quiescence contract: the table-walk models are reconfigured again and
// again to a different queue count (more queues than cores included),
// each configuration is driven by one thread per queue while a reader
// folds merged rule counters, and rule updates land only between
// configurations. After every configuration the results and the merged
// counters must equal the reference interpreter's. A race shows up here
// as a wrong count, a crash or (under TSan) a race report.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "controlplane/compiler.hpp"
#include "dataplane/switch.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/traffic.hpp"

namespace maton::dp {
namespace {

using Factory = std::unique_ptr<SwitchModel> (*)();

class ConfigureQueuesStress
    : public ::testing::TestWithParam<std::pair<const char*, Factory>> {};

TEST_P(ConfigureQueuesStress, ReconfiguredQueuesCountExactlyUnderReaders) {
  cp::GwlbBinding binding(
      workloads::make_gwlb({.num_services = 64, .num_backends = 4, .seed = 3}),
      cp::Representation::kGoto);
  std::unique_ptr<SwitchModel> sw = GetParam().second();
  ASSERT_TRUE(sw->load(binding.program()).is_ok());
  const std::vector<FlowKey> keys = workloads::make_gwlb_keys(
      binding.gwlb(), {.num_packets = 3000, .hit_fraction = 0.9, .seed = 8});
  const std::size_t oversubscribed =
      2 * std::max(1u, std::thread::hardware_concurrency()) + 1;

  for (std::size_t round = 0; round < 12; ++round) {
    const std::size_t queues = round % 4 == 3 ? oversubscribed : 1 + round % 3;
    ASSERT_TRUE(sw->configure_queues(queues));
    const Program& program = sw->program();

    std::atomic<bool> done{false};
    std::atomic<std::size_t> reads{0};
    std::thread reader([&] {
      while (!done.load(std::memory_order_acquire)) {
        for (std::size_t t = 0; t < program.tables.size(); ++t) {
          for (const auto rule : program.tables[t].rules) {
            ASSERT_TRUE(sw->read_rule_counter(t, rule.matches).is_ok());
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::vector<ExecResult> results(keys.size());
    const std::size_t per = (keys.size() + queues - 1) / queues;
    std::vector<std::thread> workers;
    for (std::size_t q = 0; q < queues; ++q) {
      workers.emplace_back([&, q] {
        const std::size_t lo = std::min(q * per, keys.size());
        const std::size_t hi = std::min(lo + per, keys.size());
        for (std::size_t base = lo; base < hi; base += 64) {
          const std::size_t n = std::min<std::size_t>(64, hi - base);
          sw->process_batch_queue(
              q, std::span(keys).subspan(base, n),
              std::span(results).subspan(base, n));
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    while (reads.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
    reader.join();

    // Quiesced: every key once, counted by the reference interpreter.
    std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> want;
    MatchedBuf matched;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult ref = execute_reference(program, keys[i], &matched);
      ASSERT_EQ(results[i].hit, ref.hit) << "round " << round << " key " << i;
      ASSERT_EQ(results[i].out_port, ref.out_port) << "round " << round;
      for (const MatchedRule& m : matched) ++want[{m.table, m.rule}];
    }
    for (std::size_t t = 0; t < program.tables.size(); ++t) {
      for (std::size_t r = 0; r < program.tables[t].rules.size(); ++r) {
        const auto got =
            sw->read_rule_counter(t, program.tables[t].rules[r].matches);
        ASSERT_TRUE(got.is_ok());
        const auto it = want.find({t, r});
        ASSERT_EQ(got.value(), it == want.end() ? 0 : it->second)
            << "round " << round << " table " << t << " rule " << r;
      }
    }

    // Between configurations, with no queue running: an intent lands.
    const std::size_t service = 5 * round % 64;
    const auto updates =
        round % 3 == 2
            ? binding.compile_intent(cp::RemoveService{.service = service})
            : binding.compile_intent(cp::ChangeBackend{
                  .service = service, .backend = 1, .new_out = 900 + round});
    ASSERT_TRUE(updates.is_ok());
    ASSERT_TRUE(sw->apply_updates(updates.value()).is_ok());
    ASSERT_TRUE(sw->program() == binding.program()) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Models, ConfigureQueuesStress,
    ::testing::Values(std::pair<const char*, Factory>{"eswitch",
                                                      &make_eswitch_model},
                      std::pair<const char*, Factory>{"lagopus",
                                                      &make_lagopus_model}),
    [](const auto& info) { return std::string(info.param.first); });

}  // namespace
}  // namespace maton::dp
