// OVS-style flow-cache model.
//
// §5: "the [OVS] datapath collapses OpenFlow tables into a single flow
// cache; in other words, OVS explicitly denormalizes the pipeline prior
// to encoding it into the datapath." The model runs the multi-table
// program only on the slow path; the traversal accumulates the megaflow
// mask (the union of header bits the decision depended on) and installs a
// collapsed single-lookup cache entry. Subsequent packets of the flow hit
// the cache, so steady-state cost is one masked lookup regardless of the
// pipeline representation.
#include <algorithm>
#include <array>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/classifier_detail.hpp"
#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace maton::dp {

namespace {

/// A dynamic tuple-space cache of collapsed megaflow entries.
class MegaflowCache {
 public:
  struct Entry {
    std::array<std::uint64_t, kNumFields> values{};
    ExecResult result;
    /// Rules whose lookup this megaflow collapses; their flow counters
    /// are credited on every cache hit (OVS stats attribution).
    std::vector<MatchedRule> contributors;
    /// Ordinal of the subtable holding this entry (probe order); lets
    /// the batch path decide whether a fresh entry shadows a
    /// previously-probed winner without re-running the full probe.
    std::size_t subtable = 0;
  };

  /// Returns the inserted entry; the pointer stays valid until clear()
  /// (entries live in deques, and container moves preserve references).
  const Entry* insert(const std::array<std::uint64_t, kNumFields>& mask,
                      const FlowKey& key, const ExecResult& result,
                      std::span<const MatchedRule> contributors) {
    SubTable* sub = nullptr;
    std::size_t ordinal = 0;
    for (std::size_t s = 0; s < subtables_.size(); ++s) {
      if (subtables_[s].mask == mask) {
        sub = &subtables_[s];
        ordinal = s;
        break;
      }
    }
    if (sub == nullptr) {
      subtables_.push_back({mask, {}});
      sub = &subtables_.back();
      ordinal = subtables_.size() - 1;
    }
    Entry entry;
    for (std::size_t f = 0; f < kNumFields; ++f) {
      entry.values[f] = key.values[f] & mask[f];
    }
    entry.result = result;
    entry.contributors.assign(contributors.begin(), contributors.end());
    entry.subtable = ordinal;
    auto& bucket = sub->entries[detail::hash_words(entry.values)];
    bucket.push_back(std::move(entry));
    ++size_;
    return &bucket.back();
  }

  [[nodiscard]] const Entry* lookup(const FlowKey& key) const {
    std::array<std::uint64_t, kNumFields> masked{};
    for (const SubTable& sub : subtables_) {
      for (std::size_t f = 0; f < kNumFields; ++f) {
        masked[f] = key.values[f] & sub.mask[f];
      }
      const auto it = sub.entries.find(detail::hash_words(masked));
      if (it == sub.entries.end()) continue;
      for (const Entry& entry : it->second) {
        if (entry.values == masked) return &entry;
      }
    }
    return nullptr;
  }

  /// Subtable-hoisted batch probe: each megaflow mask is applied across
  /// the whole batch before moving to the next subtable, so the mask and
  /// its hash-table metadata are fetched once per batch instead of once
  /// per packet. First matching subtable wins per key — the scalar probe
  /// order.
  void lookup_batch(std::span<const FlowKey> keys,
                    std::span<const Entry*> out) const {
    for (std::size_t i = 0; i < keys.size(); ++i) out[i] = nullptr;
    std::array<std::uint64_t, kNumFields> masked{};
    for (const SubTable& sub : subtables_) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        if (out[i] != nullptr) continue;
        for (std::size_t f = 0; f < kNumFields; ++f) {
          masked[f] = keys[i].values[f] & sub.mask[f];
        }
        const auto it = sub.entries.find(detail::hash_words(masked));
        if (it == sub.entries.end()) continue;
        for (const Entry& entry : it->second) {
          if (entry.values == masked) {
            out[i] = &entry;
            break;
          }
        }
      }
    }
  }

  /// Repairs a pre-computed probe after `inserted` joined the cache:
  /// probed[j] is updated for every key the new entry both masked-matches
  /// and out-ranks (an earlier subtable than the current winner, or any
  /// subtable when the probe missed). Restores the invariant
  /// probed[j] == lookup(keys[j]) without re-probing every subtable.
  void reprobe_after_insert(const Entry* inserted,
                            std::span<const FlowKey> keys,
                            std::span<const Entry*> probed) const {
    const auto& mask = subtables_[inserted->subtable].mask;
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (probed[j] != nullptr &&
          probed[j]->subtable <= inserted->subtable) {
        continue;  // current winner probes earlier; cannot be shadowed
      }
      bool match = true;
      for (std::size_t f = 0; f < kNumFields; ++f) {
        if ((keys[j].values[f] & mask[f]) != inserted->values[f]) {
          match = false;
          break;
        }
      }
      if (match) probed[j] = inserted;
    }
  }

  void clear() {
    subtables_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct SubTable {
    std::array<std::uint64_t, kNumFields> mask{};
    /// Deque-backed buckets: growing a bucket must not move existing
    /// entries — the batch path holds Entry pointers across inserts.
    std::unordered_map<std::uint64_t, std::deque<Entry>> entries;
  };
  std::vector<SubTable> subtables_;
  std::size_t size_ = 0;
};

class OvsModel final : public OvsModelInterface {
 public:
  OvsModel() {
    auto& registry = obs::MetricRegistry::global();
    const obs::Labels labels{{"model", "ovs"}};
    mf_hits_ = &registry.counter("maton_dp_megaflow_hits_total", labels);
    mf_misses_ = &registry.counter("maton_dp_megaflow_misses_total", labels);
    mf_flushes_ =
        &registry.counter("maton_dp_megaflow_flushes_total", labels);
    mf_occupancy_ =
        &registry.gauge("maton_dp_megaflow_occupancy", labels);
    chunk_size_ =
        &registry.histogram("maton_dp_batch_chunk_size", labels);
  }

  ExecResult process(const FlowKey& key) override {
    if (const auto* cached = cache_.lookup(key)) {
      ++stats_.cache_hits;
      mf_hits_->add();
      counters().bump_all(cached->contributors);
      ExecResult r = cached->result;
      r.tables_visited = 1;  // one cache lookup
      return r;
    }
    ++stats_.cache_misses;
    mf_misses_->add();
    matched_scratch_.clear();
    const auto [result, mask] = slow_path(key, &matched_scratch_);
    counters().bump_all(matched_scratch_.span());
    if (result.hit) {
      cache_.insert(mask, key, result, matched_scratch_.span());
      stats_.cache_entries = cache_.size();
      mf_occupancy_->set(static_cast<double>(cache_.size()));
    }
    return result;
  }

  /// Batched execution: the megaflow cache is probed for a whole chunk up
  /// front (subtable-hoisted); packets the probe resolved take the hit
  /// path directly. A slow-path insert could make the pre-computed probe
  /// stale — the fresh entry may shadow (or newly cover) later keys of
  /// the chunk — so after every insert the probe is *repaired* for just
  /// the chunk tail (one masked compare per remaining key) instead of
  /// demoting the tail to scalar probing. This keeps the invariant
  /// probed[j] == lookup(keys[j]) at all times, so results and stats stay
  /// bit-identical to scalar processing while the chunk keeps the hoisted
  /// fast path even across cold-start inserts.
  void process_batch_queue(std::size_t queue,
                           std::span<const FlowKey> keys,
                           std::span<ExecResult> results) override {
    expects(queue == 0, "model supports a single replay queue");
    expects(results.size() >= keys.size(),
            "process_batch result span too small");
    std::array<const MegaflowCache::Entry*, detail::kBatchChunk> probed;
    for (std::size_t base = 0; base < keys.size();
         base += detail::kBatchChunk) {
      const std::size_t n =
          std::min(detail::kBatchChunk, keys.size() - base);
      cache_.lookup_batch(keys.subspan(base, n), {probed.data(), n});
      chunk_size_->observe(static_cast<double>(n));
      std::uint64_t chunk_hits = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (probed[i] != nullptr) {
          ++stats_.cache_hits;
          ++chunk_hits;
          counters().bump_all(probed[i]->contributors);
          ExecResult r = probed[i]->result;
          r.tables_visited = 1;
          results[base + i] = r;
          continue;
        }
        // Miss: the probe invariant says a scalar lookup would miss too,
        // so go straight to the slow path.
        ++stats_.cache_misses;
        mf_misses_->add();
        matched_scratch_.clear();
        const auto [result, mask] = slow_path(keys[base + i],
                                              &matched_scratch_);
        counters().bump_all(matched_scratch_.span());
        results[base + i] = result;
        if (!result.hit) continue;
        const MegaflowCache::Entry* entry = cache_.insert(
            mask, keys[base + i], result, matched_scratch_.span());
        stats_.cache_entries = cache_.size();
        mf_occupancy_->set(static_cast<double>(cache_.size()));
        cache_.reprobe_after_insert(
            entry, keys.subspan(base + i + 1, n - i - 1),
            {probed.data() + i + 1, n - i - 1});
      }
      // Slow-path misses were counted inline; the hoisted fast path
      // credits its hits once per chunk.
      if (chunk_hits != 0) mf_hits_->add(chunk_hits);
    }
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ovs";
  }
  /// Userspace OVS datapath bookkeeping per packet.
  [[nodiscard]] double per_packet_overhead_ns() const noexcept override {
    return 160.0;
  }
  [[nodiscard]] OvsStats stats() const noexcept override { return stats_; }

 protected:
  void on_load() override {
    cache_.clear();
    stats_ = {};
    mf_occupancy_->set(0.0);
  }

  /// Revalidation model: any OpenFlow change invalidates the datapath
  /// cache wholesale. The flush statistics count every applied update
  /// (each is one revalidation); the teardown itself happens once per
  /// apply_updates call.
  void on_update(const RuleUpdate& /*update*/,
                 const ApplyOutcome& /*outcome*/) override {
    ++stats_.cache_flushes;
    mf_flushes_->add();
  }

  void on_updates_applied(
      std::span<const RuleUpdate> /*applied*/) override {
    cache_.clear();
    stats_.cache_entries = 0;
    mf_occupancy_->set(0.0);
  }

 private:
  /// Full pipeline traversal tracking the megaflow mask: bits of the
  /// *original* packet the decision depended on. Matches on fields
  /// rewritten earlier in the pipeline (metadata tags) do not widen the
  /// mask — their information content is already covered by the fields
  /// that determined the rewrite.
  [[nodiscard]] std::pair<ExecResult, std::array<std::uint64_t, kNumFields>>
  slow_path(const FlowKey& key, MatchedBuf* matched) const {
    ExecResult result;
    std::array<std::uint64_t, kNumFields> mask{};
    std::uint32_t written = 0;

    FlowKey state = key;
    std::optional<std::size_t> current =
        program().tables.empty() ? std::nullopt
                                 : std::optional{program().entry};
    while (current.has_value()) {
      const std::size_t idx = *current;
      expects(idx < program().tables.size(), "jump out of range");
      expects(result.tables_visited <= program().tables.size(),
              "table graph cycle during slow path");
      ++result.tables_visited;
      const TableSpec& table = program().tables[idx];

      std::optional<RuleView> hit;
      for (std::size_t r = 0; r < table.rules.size(); ++r) {
        if (table.rules[r].matches_key(state)) {
          hit = table.rules[r];
          if (matched != nullptr) matched->push_back({idx, r});
          break;
        }
      }
      if (!hit.has_value()) {
        result.hit = false;
        result.out_port = 0;
        return {result, mask};
      }
      for (const FieldMatch m : hit->matches) {
        if (((written >> field_index(m.field)) & 1u) == 0) {
          mask[field_index(m.field)] |= m.mask;
        }
      }
      for (const Action action : hit->actions) {
        if (action.kind == Action::Kind::kOutput) {
          result.out_port = action.value;
        } else {
          state.set(action.field, action.value);
          written |= (1u << field_index(action.field));
        }
      }
      current = hit->goto_table.has_value() ? hit->goto_table : table.next;
    }
    result.hit = true;
    return {result, mask};
  }

  MegaflowCache cache_;
  OvsStats stats_;
  obs::Counter* mf_hits_ = nullptr;
  obs::Counter* mf_misses_ = nullptr;
  obs::Counter* mf_flushes_ = nullptr;
  obs::Gauge* mf_occupancy_ = nullptr;
  obs::Histogram* chunk_size_ = nullptr;
  /// Reused per packet; inline up to 8 pipeline stages (no allocation).
  MatchedBuf matched_scratch_;
};

}  // namespace

std::unique_ptr<SwitchModel> make_ovs_model() {
  return std::make_unique<OvsModel>();
}

}  // namespace maton::dp
