#include "core/model_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/fault.hpp"
#include "util/rng.hpp"

namespace anole::core {
namespace {

CacheConfig make_config(std::size_t capacity, EvictionPolicy policy) {
  CacheConfig config;
  config.capacity = capacity;
  config.policy = policy;
  return config;
}

TEST(ModelCache, RejectsZeroCapacity) {
  EXPECT_THROW(ModelCache(3, make_config(0, EvictionPolicy::kLfu)),
               std::invalid_argument);
}

TEST(ModelCache, RejectsEmptyRankingWithoutPinnedFallback) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  EXPECT_THROW((void)cache.admit({}), std::invalid_argument);
}

TEST(ModelCache, EmptyRankingServedByPinnedFallback) {
  // The defined degradation for an empty ranking: the pinned fallback
  // serves and the frame counts as a miss.
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  cache.set_pinned_fallback(2);
  EXPECT_EQ(cache.pinned_fallback(), 2u);
  const auto admission = cache.admit({});
  EXPECT_EQ(admission.served_model, 2u);
  EXPECT_TRUE(admission.served_pinned);
  EXPECT_FALSE(admission.hit);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.degraded_serves(), 1u);
  EXPECT_TRUE(cache.contains(2));
  // Once resident it keeps serving without reloading.
  const auto again = cache.admit({});
  EXPECT_EQ(again.served_model, 2u);
  EXPECT_FALSE(again.loaded.has_value());
}

TEST(ModelCache, SetPinnedFallbackRejectsUnknownModel) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  EXPECT_THROW(cache.set_pinned_fallback(3), std::out_of_range);
}

TEST(ModelCache, ColdStartLoadsTopOne) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  const std::vector<std::size_t> ranking = {1, 0, 2};
  const auto admission = cache.admit(ranking);
  EXPECT_FALSE(admission.hit);
  EXPECT_EQ(admission.served_model, 1u);
  EXPECT_EQ(admission.loaded, 1u);
  EXPECT_FALSE(admission.evicted.has_value());
  EXPECT_TRUE(cache.contains(1));
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ModelCache, HitOnResidentTopOne) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  const std::vector<std::size_t> ranking = {1, 0, 2};
  (void)cache.admit(ranking);
  const auto second = cache.admit(ranking);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.served_model, 1u);
  EXPECT_FALSE(second.loaded.has_value());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.lookups(), 2u);
  EXPECT_DOUBLE_EQ(cache.miss_rate(), 0.5);
}

TEST(ModelCache, MissServesBestRankedResident) {
  ModelCache cache(4, make_config(2, EvictionPolicy::kLfu));
  (void)cache.admit({0, 1, 2, 3});
  (void)cache.admit({1, 0, 2, 3});
  // Cache now holds {0, 1}. Top-1 = 3 is absent; best resident in ranking
  // order {3, 1, 0, 2} is 1.
  const auto admission = cache.admit({3, 1, 0, 2});
  EXPECT_FALSE(admission.hit);
  EXPECT_EQ(admission.served_model, 1u);
  EXPECT_EQ(admission.loaded, 3u);
  // Capacity 2: loading 3 evicts the LFU entry. Model 0 served two frames
  // (frequency 2) while 1 served one (frequency 1), so 1 is evicted right
  // after serving.
  EXPECT_TRUE(admission.evicted.has_value());
  EXPECT_EQ(*admission.evicted, 1u);
}

TEST(ModelCache, LfuEvictsLeastFrequentlyUsed) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({0, 1, 2});  // model 0 used 3x
  (void)cache.admit({1, 0, 2});  // load 1, used 1x
  const auto admission = cache.admit({2, 0, 1});
  EXPECT_EQ(*admission.evicted, 1u);  // 1 is least frequently used
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(2));
}

TEST(ModelCache, LruEvictsLeastRecentlyUsed) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLru));
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({1, 0, 2});  // 1 loaded and most recent
  (void)cache.admit({0, 1, 2});  // 0 most recent again
  const auto admission = cache.admit({2, 0, 1});
  EXPECT_EQ(*admission.evicted, 1u);
}

TEST(ModelCache, FifoEvictsOldestLoad) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kFifo));
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({1, 0, 2});
  // Keep using 0 so LFU/LRU would evict 1; FIFO must still evict 0.
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({0, 1, 2});
  const auto admission = cache.admit({2, 0, 1});
  EXPECT_EQ(*admission.evicted, 0u);
}

TEST(ModelCache, PreloadDoesNotCountMisses) {
  ModelCache cache(4, make_config(3, EvictionPolicy::kLfu));
  const std::vector<std::size_t> models = {0, 1, 2};
  cache.preload(models);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_EQ(cache.lookups(), 0u);
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  const auto admission = cache.admit({2, 1, 0});
  EXPECT_TRUE(admission.hit);
}

TEST(ModelCache, PreloadIsIdempotent) {
  ModelCache cache(4, make_config(2, EvictionPolicy::kLfu));
  const std::vector<std::size_t> models = {0, 0, 0};
  cache.preload(models);
  EXPECT_EQ(cache.resident_models().size(), 1u);
}

TEST(ModelCache, UseCountsTrackServedModel) {
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  (void)cache.admit({0, 1, 2});
  (void)cache.admit({0, 1, 2});
  // Top-1 = 1 misses; the resident model 0 serves the frame while 1 loads.
  (void)cache.admit({1, 0, 2});
  const auto& counts = cache.use_counts();
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 0u);
}

TEST(ModelCache, CapacityOneAlwaysServesSomething) {
  ModelCache cache(5, make_config(1, EvictionPolicy::kLfu));
  for (std::size_t target = 0; target < 5; ++target) {
    std::vector<std::size_t> ranking;
    for (std::size_t m = 0; m < 5; ++m) ranking.push_back((target + m) % 5);
    const auto admission = cache.admit(ranking);
    EXPECT_LT(admission.served_model, 5u);
    EXPECT_EQ(cache.resident_models().size(), 1u);
  }
}

TEST(ModelCache, NeverExceedsCapacity) {
  ModelCache cache(10, make_config(3, EvictionPolicy::kLfu));
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    std::vector<std::size_t> ranking = random_permutation(10, rng);
    (void)cache.admit(ranking);
    EXPECT_LE(cache.resident_models().size(), 3u);
  }
}

TEST(ModelCache, PolicyNames) {
  EXPECT_STREQ(to_string(EvictionPolicy::kLfu), "LFU");
  EXPECT_STREQ(to_string(EvictionPolicy::kLru), "LRU");
  EXPECT_STREQ(to_string(EvictionPolicy::kFifo), "FIFO");
}

/// Skewed rankings: with a power-law top-1 distribution a small LFU cache
/// must reach a low miss rate (the paper's Fig. 7b premise).
class CacheMissRateTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CacheMissRateTest, SmallCacheHandlesPowerLawRankings) {
  const std::size_t capacity = GetParam();
  const std::size_t models = 19;
  ModelCache cache(models, make_config(capacity, EvictionPolicy::kLfu));
  Rng rng(11);
  // Zipf-like top-1 choice.
  std::vector<double> weights;
  for (std::size_t m = 1; m <= models; ++m) weights.push_back(1.0 / (m * m));
  for (int i = 0; i < 2000; ++i) {
    const std::size_t top = rng.weighted_index(weights);
    std::vector<std::size_t> ranking = {top};
    for (std::size_t m = 0; m < models; ++m) {
      if (m != top) ranking.push_back(m);
    }
    (void)cache.admit(ranking);
  }
  if (capacity >= 5) {
    EXPECT_LT(cache.miss_rate(), 0.12) << "capacity=" << capacity;
  }
  if (capacity >= 2) {
    EXPECT_LT(cache.miss_rate(), 0.4);
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheMissRateTest,
                         ::testing::Values(2, 3, 5, 8, 12));

/// --- preload vs the quarantine ladder (regressions) ---

TEST(ModelCachePreload, SkipsPermanentlyQuarantinedModels) {
  ModelCache cache(3, make_config(3, EvictionPolicy::kLfu));
  cache.set_pinned_fallback(0);
  cache.quarantine_forever(1);
  const std::vector<std::size_t> models = {1, 2};
  cache.preload(models);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.contains(2));
  // Preload must not resurrect a permanently exiled model, ever.
  cache.preload(models);
  EXPECT_FALSE(cache.contains(1));
  EXPECT_TRUE(cache.is_quarantined(1));
  const auto admission = cache.admit({1, 2});
  EXPECT_EQ(admission.served_model, 2u);
}

TEST(ModelCachePreload, CannotResurrectEvictedQuarantinedResident) {
  ModelCache cache(3, make_config(3, EvictionPolicy::kLfu));
  cache.set_pinned_fallback(0);
  const std::vector<std::size_t> models = {1};
  cache.preload(models);
  ASSERT_TRUE(cache.contains(1));
  // quarantine_forever evicts the resident copy; a later preload of the
  // same id must stay a no-op.
  cache.quarantine_forever(1);
  EXPECT_FALSE(cache.contains(1));
  cache.preload(models);
  EXPECT_FALSE(cache.contains(1));
}

TEST(ModelCacheLadder, CooldownDoublingIsCapped) {
  // Each repeat offence doubles the cooldown, capped at 2^6 times the
  // base of 64 admissions: 64, 128, ..., 4096, 4096, 4096.
  fault::FaultInjector injector;
  injector.arm(fault::Site::kModelLoad, 1.0);  // every load fails
  ModelCache cache(3, make_config(2, EvictionPolicy::kLfu));
  cache.set_fault_injector(&injector);
  cache.set_pinned_fallback(0);

  std::vector<std::size_t> cooldowns;
  for (int offence = 0; offence < 9; ++offence) {
    // The first kQuarantineAfter - 1 abandonments only count.
    for (std::size_t i = 1; i < ModelCache::kQuarantineAfter; ++i) {
      ASSERT_FALSE(cache.admit({1, 0}).quarantined.has_value());
    }
    const auto admission = cache.admit({1, 0});
    ASSERT_EQ(admission.quarantined, 1u) << "offence " << offence;
    std::size_t waited = 0;
    while (cache.is_quarantined(1)) {
      (void)cache.admit({0});
      ++waited;
      ASSERT_LE(waited, 5000u);
    }
    cooldowns.push_back(waited);
  }
  const std::vector<std::size_t> expected = {64,   128,  256,  512, 1024,
                                             2048, 4096, 4096, 4096};
  EXPECT_EQ(cooldowns, expected);
}

/// --- byte budget (DESIGN.md §11) ---

CacheConfig budget_config(std::size_t capacity, std::uint64_t budget) {
  CacheConfig config = make_config(capacity, EvictionPolicy::kLfu);
  config.memory_budget_bytes = budget;
  return config;
}

TEST(ModelCacheBudget, EvictsBytesToFitNotOneSlot) {
  // Three 30-byte residents; loading a 90-byte model under a 100-byte
  // budget must displace all three, not just the one slot-eviction.
  ModelCache cache(4, budget_config(5, 100));
  const std::vector<std::uint64_t> bytes = {30, 30, 30, 90};
  cache.set_model_bytes(bytes);
  (void)cache.admit({0, 1, 2, 3});
  (void)cache.admit({1, 0, 2, 3});
  (void)cache.admit({2, 0, 1, 3});
  EXPECT_EQ(cache.resident_bytes(), 90u);
  const auto admission = cache.admit({3, 2, 1, 0});
  EXPECT_EQ(admission.loaded, 3u);
  EXPECT_EQ(admission.evicted_count, 3u);
  EXPECT_EQ(cache.resident_models(), std::vector<std::size_t>{3});
  EXPECT_EQ(cache.resident_bytes(), 90u);
  EXPECT_GE(cache.budget_evictions(), 3u);
}

TEST(ModelCacheBudget, OversizedLoadRefusedServesBestResident) {
  ModelCache cache(4, budget_config(5, 100));
  const std::vector<std::uint64_t> bytes = {40, 40, 40, 150};
  cache.set_model_bytes(bytes);
  (void)cache.admit({0, 1, 2, 3});
  // Model 3 exceeds the whole budget: the load is refused outright (no
  // retry, no quarantine — the model is healthy, the budget is not) and
  // the best resident serves.
  const auto admission = cache.admit({3, 0, 1, 2});
  EXPECT_TRUE(admission.load_refused_oversized);
  EXPECT_FALSE(admission.loaded.has_value());
  EXPECT_EQ(admission.served_model, 0u);
  EXPECT_FALSE(cache.contains(3));
  EXPECT_FALSE(cache.is_quarantined(3));
  EXPECT_EQ(cache.oversized_rejections(), 1u);
  EXPECT_EQ(cache.load_failures(), 0u);
  EXPECT_EQ(cache.abandoned_loads(), 0u);
}

TEST(ModelCacheBudget, OversizedColdStartDegradesToPinned) {
  ModelCache cache(3, budget_config(3, 100));
  const std::vector<std::uint64_t> bytes = {40, 40, 150};
  cache.set_model_bytes(bytes);
  cache.set_pinned_fallback(0);
  const auto admission = cache.admit({2});
  EXPECT_TRUE(admission.load_refused_oversized);
  EXPECT_TRUE(admission.served_pinned);
  EXPECT_EQ(admission.served_model, 0u);
  EXPECT_FALSE(cache.contains(2));
}

TEST(ModelCacheBudget, ZeroBudgetDisablesByteAccounting) {
  // budget 0 = today's behavior: sizes are tracked but never constrain.
  ModelCache cache(4, make_config(3, EvictionPolicy::kLfu));
  const std::vector<std::uint64_t> bytes = {1000, 1000, 1000, 1000};
  cache.set_model_bytes(bytes);
  (void)cache.admit({0, 1, 2, 3});
  (void)cache.admit({1, 0, 2, 3});
  (void)cache.admit({2, 0, 1, 3});
  EXPECT_EQ(cache.resident_models().size(), 3u);
  EXPECT_EQ(cache.resident_bytes(), 3000u);
  EXPECT_EQ(cache.effective_budget_bytes(), 0u);
  EXPECT_EQ(cache.budget_evictions(), 0u);
  EXPECT_EQ(cache.oversized_rejections(), 0u);
}

TEST(ModelCacheBudget, SetModelBytesValidatesCount) {
  ModelCache cache(3, budget_config(3, 100));
  const std::vector<std::uint64_t> wrong = {10, 10};
  EXPECT_THROW(cache.set_model_bytes(wrong), std::invalid_argument);
}

TEST(ModelCacheBudget, ShrinkingBudgetEvictsImmediately) {
  ModelCache cache(3, budget_config(3, 120));
  const std::vector<std::uint64_t> bytes = {50, 50, 50};
  cache.set_model_bytes(bytes);
  const std::vector<std::size_t> models = {0, 1};
  cache.preload(models);
  EXPECT_EQ(cache.resident_bytes(), 100u);
  cache.set_memory_budget_bytes(60);
  EXPECT_EQ(cache.resident_models().size(), 1u);
  EXPECT_LE(cache.resident_bytes(), 60u);
  EXPECT_GE(cache.budget_evictions(), 1u);
}

TEST(ModelCacheBudget, PreloadRespectsBudget) {
  ModelCache cache(3, budget_config(3, 100));
  const std::vector<std::uint64_t> bytes = {40, 40, 150};
  cache.set_model_bytes(bytes);
  const std::vector<std::size_t> models = {2, 0, 1};
  cache.preload(models);
  // The oversized model is skipped; the rest fill up to the budget.
  EXPECT_FALSE(cache.contains(2));
  EXPECT_TRUE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_LE(cache.resident_bytes(), 100u);
}

TEST(ModelCacheBudget, MemoryPressureShrinksBudgetForAWindow) {
  ModelCache cache(3, budget_config(3, 120));
  const std::vector<std::uint64_t> bytes = {50, 50, 50};
  cache.set_model_bytes(bytes);
  const std::vector<std::size_t> models = {0, 1};
  cache.preload(models);
  ASSERT_EQ(cache.resident_bytes(), 100u);

  fault::FaultInjector injector;
  injector.arm(fault::Site::kMemoryPressure, 1.0, /*magnitude=*/2.0);
  cache.set_fault_injector(&injector);
  // The next admission fires the pressure fault: budget halves to 60 and
  // residents are evicted down to it immediately.
  (void)cache.admit({0, 1, 2});
  EXPECT_TRUE(cache.under_pressure());
  EXPECT_EQ(cache.effective_budget_bytes(), 60u);
  EXPECT_LE(cache.resident_bytes(), 60u);
  EXPECT_EQ(cache.pressure_events(), 1u);

  // Disarm and wait out the window: the full budget returns, not before.
  injector.disarm(fault::Site::kMemoryPressure);
  for (std::size_t i = 1; i < ModelCache::kPressureWindow; ++i) {
    (void)cache.admit({0, 1, 2});
  }
  EXPECT_TRUE(cache.under_pressure());
  (void)cache.admit({0, 1, 2});
  EXPECT_FALSE(cache.under_pressure());
  EXPECT_EQ(cache.effective_budget_bytes(), 120u);
}

TEST(ModelCacheBudget, PinnedFallbackLoadIsExemptFromOversizedRefusal) {
  // The premodel is the last line of defence: even when it exceeds the
  // budget it loads (draining the cache first) rather than leaving the
  // frame unserved.
  ModelCache cache(3, budget_config(3, 100));
  const std::vector<std::uint64_t> bytes = {150, 40, 40};
  cache.set_model_bytes(bytes);
  cache.set_pinned_fallback(0);
  const auto admission = cache.admit({});
  EXPECT_TRUE(admission.served_pinned);
  EXPECT_EQ(admission.served_model, 0u);
  EXPECT_TRUE(cache.contains(0));
}

TEST(ModelCacheBudget, SuppressedSwapServesResidentWithoutLoading) {
  ModelCache cache(4, make_config(2, EvictionPolicy::kLfu));
  (void)cache.admit({0, 1, 2, 3});
  const AdmitOptions no_swap{.allow_load = false};
  const auto admission = cache.admit({3, 0, 1, 2}, no_swap);
  EXPECT_TRUE(admission.swap_suppressed);
  EXPECT_FALSE(admission.loaded.has_value());
  EXPECT_EQ(admission.served_model, 0u);
  EXPECT_FALSE(cache.contains(3));
  EXPECT_EQ(cache.misses(), 2u);  // still a miss, just not a load
  // A cold miss ignores the suppression: something must serve.
  ModelCache cold(4, make_config(2, EvictionPolicy::kLfu));
  const auto forced = cold.admit({3, 0, 1, 2}, no_swap);
  EXPECT_FALSE(forced.swap_suppressed);
  EXPECT_EQ(forced.loaded, 3u);
  EXPECT_EQ(forced.served_model, 3u);
}

}  // namespace
}  // namespace anole::core
