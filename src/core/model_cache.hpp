// Cache-based Model Deployment (CMD, paper section V-B).
//
// A device can keep only `capacity` compressed models resident. Each frame
// the decision model produces a ranking; the frame is served by the
// best-ranked *resident* model, and on a top-1 miss the top-1 model is
// loaded, evicting a victim chosen by the configured policy (the paper
// motivates LFU from the power-law model-utility distribution; LRU and
// FIFO are kept for the ablation bench).
//
// Degradation ladder (DESIGN.md §9): model loads can fail (exercised via
// util/fault.hpp). A failed load is retried up to kMaxLoadAttempts
// times within the admission; a model whose loads are abandoned
// kQuarantineAfter times in a row is quarantined — exiled from rankings
// for a cooldown that doubles on every repeat offence, then re-admitted.
// When no ranked model is admissible (all quarantined, or the ranking is
// empty), the pinned fallback model serves the frame; its load bypasses
// fault injection (the premodel lives in a reserved slot, the framework's
// last line of defence). Nothing in this path throws: every frame is
// served by a resident model.
//
// Byte budget (DESIGN.md §11): beyond the slot count, the cache can be
// bounded by real weight bytes. `set_model_bytes` supplies per-model
// sizes (quantized artifact sections at their real, smaller size) and
// `memory_budget_bytes` caps the resident total; a load evicts victims
// until the new model *fits*, not just one slot. A model larger than the
// whole (possibly pressure-shrunk) budget is refused outright and the
// frame degrades to the best resident model — except the pinned fallback,
// whose load is exempt. The `memory_pressure` fault site shrinks the
// effective budget by the armed magnitude for a window of admissions,
// exercising mid-run OS memory reclamation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/fault.hpp"

namespace anole::core {

enum class EvictionPolicy { kLfu, kLru, kFifo };

const char* to_string(EvictionPolicy policy);

struct CacheConfig {
  std::size_t capacity = 5;
  EvictionPolicy policy = EvictionPolicy::kLfu;
  /// Resident-weight byte cap; 0 disables byte accounting entirely (the
  /// cache is bounded by `capacity` slots only, today's behavior). Takes
  /// effect once `set_model_bytes` supplies per-model sizes.
  std::uint64_t memory_budget_bytes = 0;
};

/// Per-admission knobs (the governor's levers). Defaults preserve the
/// unconstrained behavior.
struct AdmitOptions {
  /// False: do not start a model load for this frame — serve the best
  /// already-resident model instead (a throttled governor suppressing
  /// swaps). Ignored when nothing ranked is resident: a cold start must
  /// still load.
  bool allow_load = true;
};

class ModelCache {
 public:
  /// Load attempts per admission before the load is abandoned.
  static constexpr std::size_t kMaxLoadAttempts = 3;
  /// Consecutive abandoned loads before a model is quarantined.
  static constexpr std::size_t kQuarantineAfter = 3;
  /// Base quarantine cooldown in admissions; doubles per repeat offence
  /// (capped at 2^6 times the base), giving decayed re-admission.
  static constexpr std::size_t kQuarantineFrames = 64;
  /// Admissions a `memory_pressure` fault keeps the budget shrunk for.
  static constexpr std::size_t kPressureWindow = 128;

  /// What happened for one frame's ranking.
  struct Admission {
    /// Model used to serve this frame (best-ranked resident model).
    std::size_t served_model = 0;
    /// True when the (admissible) top-1 model was already resident.
    bool hit = false;
    /// Model loaded this step (top-1 on a miss), if any.
    std::optional<std::size_t> loaded;
    /// First model evicted to make room, if any.
    std::optional<std::size_t> evicted;
    /// Total models evicted this admission (a byte-budget load can evict
    /// several victims to fit).
    std::size_t evicted_count = 0;
    /// Load attempts made this admission (0 when no load was needed).
    std::size_t load_attempts = 0;
    /// True when every attempt failed and the load was abandoned.
    bool load_abandoned = false;
    /// Model newly quarantined by this admission, if any.
    std::optional<std::size_t> quarantined;
    /// True when the pinned fallback served because no ranked model was
    /// admissible (empty ranking, all quarantined, or failed cold load).
    bool served_pinned = false;
    /// True when a top-1 miss did not load because AdmitOptions.allow_load
    /// was false (governor-throttled swap).
    bool swap_suppressed = false;
    /// True when the top-1 load was refused because the model exceeds the
    /// whole effective byte budget.
    bool load_refused_oversized = false;
  };

  ModelCache(std::size_t model_count, const CacheConfig& config);

  /// Serves a frame given the decision ranking (ranking[0] = top-1).
  /// On a cold start (empty cache) the top-1 model is loaded synchronously
  /// and counted as a miss. An empty ranking (or one whose every model is
  /// quarantined) is served by the pinned fallback when one is set and
  /// throws anole::ContractViolation otherwise.
  Admission admit(std::span<const std::size_t> ranking) {
    return admit(ranking, AdmitOptions{});
  }
  Admission admit(std::span<const std::size_t> ranking,
                  const AdmitOptions& options);

  /// Convenience overloads for literal rankings.
  Admission admit(std::initializer_list<std::size_t> ranking) {
    return admit(std::span<const std::size_t>(ranking.begin(),
                                              ranking.size()));
  }
  Admission admit(std::initializer_list<std::size_t> ranking,
                  const AdmitOptions& options) {
    return admit(std::span<const std::size_t>(ranking.begin(),
                                              ranking.size()),
                 options);
  }

  bool contains(std::size_t model) const;
  std::vector<std::size_t> resident_models() const;
  std::size_t capacity() const { return config_.capacity; }

  std::size_t lookups() const { return lookups_; }
  std::size_t misses() const { return misses_; }
  double miss_rate() const;

  /// Loads models up-front (no miss accounting, no fault injection),
  /// evicting as needed. Quarantined models are skipped.
  void preload(std::span<const std::size_t> models);

  /// Per-model use counts (how often each model served a frame).
  const std::vector<std::size_t>& use_counts() const { return use_counts_; }

  /// --- degradation ladder ---

  /// Injector consulted on every load attempt (site `model_load`); null
  /// (the default) means loads always succeed. Not owned.
  void set_fault_injector(fault::FaultInjector* faults) { faults_ = faults; }

  /// Pins the model that serves when no ranked model is admissible. Its
  /// loads bypass fault injection (a reserved premodel slot).
  void set_pinned_fallback(std::size_t model);
  std::optional<std::size_t> pinned_fallback() const { return pinned_; }

  /// True while `model` is exiled from rankings (cooldown not yet over).
  bool is_quarantined(std::size_t model) const;

  /// Exiles `model` permanently (e.g. its artifact section was corrupt).
  void quarantine_forever(std::size_t model);

  /// Currently quarantined models, ascending.
  std::vector<std::size_t> quarantined_models() const;

  /// Failed load attempts / abandoned loads / quarantine entries /
  /// pinned-fallback serves since construction.
  std::size_t load_failures() const { return load_failures_; }
  std::size_t abandoned_loads() const { return abandoned_loads_; }
  std::size_t quarantine_events() const { return quarantine_events_; }
  std::size_t degraded_serves() const { return degraded_serves_; }

  /// --- byte budget ---

  /// Supplies per-model weight sizes (bytes[m] = weight bytes of model
  /// m). Requires exactly model_count entries. Enables byte accounting;
  /// immediately evicts to the configured budget if already over it.
  void set_model_bytes(std::span<const std::uint64_t> bytes);

  /// Replaces the configured byte budget (0 disables byte accounting)
  /// and immediately evicts down to it.
  void set_memory_budget_bytes(std::uint64_t budget);

  /// Total weight bytes currently resident (0 until set_model_bytes).
  std::uint64_t resident_bytes() const { return resident_bytes_; }
  std::uint64_t memory_budget_bytes() const {
    return config_.memory_budget_bytes;
  }

  /// The budget after any active memory-pressure shrink; 0 when byte
  /// accounting is disabled.
  std::uint64_t effective_budget_bytes() const;

  /// True while a `memory_pressure` fault keeps the budget shrunk.
  bool under_pressure() const;

  /// Top-1 loads refused as oversized / evictions forced by the byte
  /// budget (beyond slot-capacity evictions) / memory-pressure faults
  /// fired, since construction.
  std::size_t oversized_rejections() const { return oversized_rejections_; }
  std::size_t budget_evictions() const { return budget_evictions_; }
  std::size_t pressure_events() const { return pressure_events_; }

 private:
  struct Entry {
    std::size_t model = 0;
    std::size_t frequency = 0;   // uses since load (LFU)
    std::size_t last_used = 0;   // logical clock (LRU)
    std::size_t loaded_at = 0;   // logical clock (FIFO)
  };

  /// Per-model failure bookkeeping for the quarantine ladder.
  struct Health {
    std::size_t consecutive_abandoned = 0;
    std::size_t quarantine_count = 0;
    /// Admissible again once clock_ >= quarantined_until.
    std::size_t quarantined_until = 0;
    bool forever = false;
  };

  std::optional<std::size_t> find(std::size_t model) const;
  void load(std::size_t model);
  std::size_t pick_victim() const;
  void touch(std::size_t entry_index);
  void evict_model(std::size_t model);
  void evict_entry(std::size_t entry_index);

  /// Weight bytes of `model`; 0 until set_model_bytes supplies sizes.
  std::uint64_t bytes_of(std::size_t model) const;
  /// True when byte accounting is active (budget and sizes configured).
  bool budget_active() const;
  /// True when `model` alone fits the effective budget (always true when
  /// byte accounting is inactive).
  bool fits_budget(std::size_t model) const;
  /// Evicts victims until the resident total fits the effective budget.
  void enforce_budget();
  /// One deterministic memory-pressure draw per admission (site
  /// `memory_pressure`); a hit shrinks the budget for kPressureWindow
  /// admissions.
  void consult_memory_pressure();

  /// Attempts to load `model` with bounded retry under fault injection;
  /// fills the load/quarantine fields of `admission`. Returns true when
  /// the model is resident afterwards.
  bool try_load(std::size_t model, Admission& admission);

  /// Serves via the pinned fallback (loading it fault-free if needed).
  void serve_pinned(Admission& admission);

  CacheConfig config_;
  std::size_t model_count_;
  std::vector<Entry> entries_;
  std::vector<std::size_t> use_counts_;
  std::vector<Health> health_;
  fault::FaultInjector* faults_ = nullptr;
  std::optional<std::size_t> pinned_;
  std::size_t clock_ = 0;
  std::size_t lookups_ = 0;
  std::size_t misses_ = 0;
  std::size_t load_failures_ = 0;
  std::size_t abandoned_loads_ = 0;
  std::size_t quarantine_events_ = 0;
  std::size_t degraded_serves_ = 0;
  /// --- byte budget state ---
  /// Per-model weight bytes; empty until set_model_bytes.
  std::vector<std::uint64_t> model_bytes_;
  std::uint64_t resident_bytes_ = 0;
  /// Budget stays shrunk while clock_ < pressure_until_.
  std::size_t pressure_until_ = 0;
  double pressure_divisor_ = 1.0;
  std::size_t oversized_rejections_ = 0;
  std::size_t budget_evictions_ = 0;
  std::size_t pressure_events_ = 0;
};

}  // namespace anole::core
