#include "core/model_cache.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace anole::core {

const char* to_string(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLfu:
      return "LFU";
    case EvictionPolicy::kLru:
      return "LRU";
    case EvictionPolicy::kFifo:
      return "FIFO";
  }
  ANOLE_UNREACHABLE("unknown EvictionPolicy ",
                    static_cast<int>(policy));
}

ModelCache::ModelCache(std::size_t model_count, const CacheConfig& config)
    : config_(config), model_count_(model_count),
      use_counts_(model_count, 0), health_(model_count) {
  ANOLE_CHECK_GE(config.capacity, 1u, "ModelCache: capacity must be >= 1");
  ANOLE_CHECK_GE(model_count, 1u, "ModelCache: no models to cache");
}

std::optional<std::size_t> ModelCache::find(std::size_t model) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].model == model) return i;
  }
  return std::nullopt;
}

bool ModelCache::contains(std::size_t model) const {
  return find(model).has_value();
}

std::vector<std::size_t> ModelCache::resident_models() const {
  std::vector<std::size_t> models;
  models.reserve(entries_.size());
  for (const auto& entry : entries_) models.push_back(entry.model);
  return models;
}

double ModelCache::miss_rate() const {
  return lookups_ == 0 ? 0.0
                       : static_cast<double>(misses_) /
                             static_cast<double>(lookups_);
}

void ModelCache::set_pinned_fallback(std::size_t model) {
  ANOLE_CHECK_RANGE(model, model_count_,
                    "ModelCache::set_pinned_fallback: unknown model id");
  ANOLE_CHECK(!health_[model].forever,
              "ModelCache::set_pinned_fallback: model ", model,
              " is permanently quarantined");
  pinned_ = model;
}

bool ModelCache::is_quarantined(std::size_t model) const {
  ANOLE_CHECK_RANGE(model, model_count_,
                    "ModelCache::is_quarantined: unknown model id");
  const Health& health = health_[model];
  return health.forever || clock_ < health.quarantined_until;
}

void ModelCache::quarantine_forever(std::size_t model) {
  ANOLE_CHECK_RANGE(model, model_count_,
                    "ModelCache::quarantine_forever: unknown model id");
  ANOLE_CHECK(!pinned_ || *pinned_ != model,
              "ModelCache::quarantine_forever: model ", model,
              " is the pinned fallback");
  health_[model].forever = true;
  ++quarantine_events_;
  evict_model(model);
}

std::vector<std::size_t> ModelCache::quarantined_models() const {
  std::vector<std::size_t> models;
  for (std::size_t m = 0; m < model_count_; ++m) {
    if (is_quarantined(m)) models.push_back(m);
  }
  return models;
}

std::size_t ModelCache::pick_victim() const {
  std::size_t victim = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    const Entry& candidate = entries_[i];
    const Entry& current = entries_[victim];
    bool better = false;
    switch (config_.policy) {
      case EvictionPolicy::kLfu:
        better = candidate.frequency < current.frequency ||
                 (candidate.frequency == current.frequency &&
                  candidate.last_used < current.last_used);
        break;
      case EvictionPolicy::kLru:
        better = candidate.last_used < current.last_used;
        break;
      case EvictionPolicy::kFifo:
        better = candidate.loaded_at < current.loaded_at;
        break;
    }
    if (better) victim = i;
  }
  return victim;
}

void ModelCache::load(std::size_t model) {
  if (entries_.size() >= config_.capacity) evict_entry(pick_victim());
  if (budget_active()) {
    // Free bytes-to-fit, not one slot: a large model may displace several
    // small residents. An oversized model (> the whole budget) would
    // drain the cache and still not fit — callers refuse it up front; the
    // pinned fallback is exempt and loads over budget (last line of
    // defence).
    const std::uint64_t need = bytes_of(model);
    const std::uint64_t budget = effective_budget_bytes();
    while (!entries_.empty() && resident_bytes_ + need > budget) {
      evict_entry(pick_victim());
      ++budget_evictions_;
    }
  }
  Entry entry;
  entry.model = model;
  entry.loaded_at = clock_;
  entry.last_used = clock_;
  entries_.push_back(entry);
  resident_bytes_ += bytes_of(model);
}

void ModelCache::touch(std::size_t entry_index) {
  ANOLE_DCHECK_RANGE(entry_index, entries_.size(), "ModelCache::touch");
  entries_[entry_index].frequency += 1;
  entries_[entry_index].last_used = clock_;
}

void ModelCache::evict_model(std::size_t model) {
  if (auto index = find(model)) evict_entry(*index);
}

void ModelCache::evict_entry(std::size_t entry_index) {
  ANOLE_DCHECK_RANGE(entry_index, entries_.size(),
                     "ModelCache::evict_entry");
  resident_bytes_ -= bytes_of(entries_[entry_index].model);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(entry_index));
}

std::uint64_t ModelCache::bytes_of(std::size_t model) const {
  return model_bytes_.empty() ? 0 : model_bytes_[model];
}

bool ModelCache::budget_active() const {
  return config_.memory_budget_bytes > 0 && !model_bytes_.empty();
}

std::uint64_t ModelCache::effective_budget_bytes() const {
  if (config_.memory_budget_bytes == 0) return 0;
  if (clock_ >= pressure_until_) return config_.memory_budget_bytes;
  return static_cast<std::uint64_t>(
      static_cast<double>(config_.memory_budget_bytes) / pressure_divisor_);
}

bool ModelCache::under_pressure() const {
  return config_.memory_budget_bytes > 0 && clock_ < pressure_until_;
}

bool ModelCache::fits_budget(std::size_t model) const {
  if (!budget_active()) return true;
  return bytes_of(model) <= effective_budget_bytes();
}

void ModelCache::enforce_budget() {
  if (!budget_active()) return;
  const std::uint64_t budget = effective_budget_bytes();
  while (!entries_.empty() && resident_bytes_ > budget) {
    evict_entry(pick_victim());
    ++budget_evictions_;
  }
}

void ModelCache::consult_memory_pressure() {
  if (faults_ == nullptr || config_.memory_budget_bytes == 0) return;
  if (!faults_->should_fail(fault::Site::kMemoryPressure, clock_)) return;
  // The OS reclaims memory: the effective budget shrinks by the armed
  // magnitude (a divisor) for the next kPressureWindow admissions, and
  // residents are evicted down to the shrunk budget immediately.
  pressure_until_ = clock_ + kPressureWindow;
  pressure_divisor_ =
      std::max(1.0, faults_->magnitude(fault::Site::kMemoryPressure));
  ++pressure_events_;
  enforce_budget();
}

void ModelCache::set_model_bytes(std::span<const std::uint64_t> bytes) {
  ANOLE_CHECK_EQ(bytes.size(), model_count_,
                 "ModelCache::set_model_bytes: need one size per model");
  model_bytes_.assign(bytes.begin(), bytes.end());
  resident_bytes_ = 0;
  for (const Entry& entry : entries_) {
    resident_bytes_ += model_bytes_[entry.model];
  }
  enforce_budget();
}

void ModelCache::set_memory_budget_bytes(std::uint64_t budget) {
  config_.memory_budget_bytes = budget;
  enforce_budget();
}

bool ModelCache::try_load(std::size_t model, Admission& admission) {
  Health& health = health_[model];
  for (std::size_t attempt = 1; attempt <= kMaxLoadAttempts; ++attempt) {
    admission.load_attempts = attempt;
    if (faults_ != nullptr &&
        faults_->should_fail(fault::Site::kModelLoad, model)) {
      ++load_failures_;
      continue;
    }
    load(model);
    health.consecutive_abandoned = 0;
    return true;
  }
  // Every attempt failed: abandon the load and walk the quarantine ladder.
  admission.load_abandoned = true;
  ++abandoned_loads_;
  ++health.consecutive_abandoned;
  if (health.consecutive_abandoned >= kQuarantineAfter) {
    const std::size_t backoff =
        std::min<std::size_t>(health.quarantine_count, 6);
    health.quarantined_until = clock_ + (kQuarantineFrames << backoff);
    ++health.quarantine_count;
    health.consecutive_abandoned = 0;
    ++quarantine_events_;
    admission.quarantined = model;
    evict_model(model);
  }
  return false;
}

void ModelCache::serve_pinned(Admission& admission) {
  // Defined degradation for "nothing admissible": the pinned premodel
  // serves. Its load is fault-free by design (reserved slot).
  const std::size_t pinned = *pinned_;
  if (!contains(pinned)) {
    const auto before = resident_models();
    load(pinned);
    admission.loaded = pinned;
    for (std::size_t model : before) {
      if (!contains(model)) {
        if (!admission.evicted) admission.evicted = model;
        ++admission.evicted_count;
      }
    }
  }
  touch(*find(pinned));
  admission.served_model = pinned;
  admission.served_pinned = true;
  ++degraded_serves_;
  use_counts_[pinned] += 1;
}

ModelCache::Admission ModelCache::admit(
    std::span<const std::size_t> ranking, const AdmitOptions& options) {
  // A ranking entry outside the model id space would silently corrupt
  // use_counts_; validate the whole vector up front.
  for (std::size_t model : ranking) {
    ANOLE_CHECK_RANGE(model, model_count_,
                      "ModelCache::admit: unknown model id in ranking");
  }
  ANOLE_CHECK(!ranking.empty() || pinned_.has_value(),
              "ModelCache::admit: empty ranking and no pinned fallback "
              "(set_pinned_fallback defines the degraded serve)");
  ++clock_;
  ++lookups_;
  consult_memory_pressure();
  Admission admission;

  // Effective top-1: the best-ranked model that is not quarantined.
  std::optional<std::size_t> top;
  for (std::size_t model : ranking) {
    if (!is_quarantined(model)) {
      top = model;
      break;
    }
  }
  if (!top) {
    // Empty or fully quarantined ranking: the pinned premodel serves.
    ++misses_;
    serve_pinned(admission);
    return admission;
  }

  if (auto resident = find(*top)) {
    admission.hit = true;
    admission.served_model = *top;
    touch(*resident);
    use_counts_[*top] += 1;
    return admission;
  }

  ++misses_;
  // Serve with the best-ranked admissible resident model, if any, and
  // credit its use *before* the load so the eviction policy sees it as
  // active.
  std::optional<std::size_t> serving_model;
  for (std::size_t model : ranking) {
    if (!is_quarantined(model) && contains(model)) {
      serving_model = model;
      break;
    }
  }
  if (serving_model) touch(*find(*serving_model));

  if (!options.allow_load && serving_model) {
    // Governor-throttled: skip the load, serve the best resident model.
    // A cold miss (nothing ranked resident) still falls through to the
    // load below — suppression must never leave a frame unserved.
    admission.swap_suppressed = true;
    admission.served_model = *serving_model;
    use_counts_[admission.served_model] += 1;
    return admission;
  }

  if (!fits_budget(*top)) {
    // Larger than the whole (possibly pressure-shrunk) budget: loading it
    // would drain the cache and still overflow. Refuse — no retry, no
    // quarantine (the model is healthy, the budget is not) — and degrade
    // to the best resident model below.
    admission.load_refused_oversized = true;
    ++oversized_rejections_;
  } else {
    // Load top-1 (evicting to fit) so future frames of this scene hit.
    const auto before = resident_models();
    if (try_load(*top, admission)) {
      admission.loaded = *top;
      for (std::size_t model : before) {
        if (!contains(model)) {
          if (!admission.evicted) admission.evicted = model;
          ++admission.evicted_count;
        }
      }
    }
  }

  if (!serving_model) {
    if (contains(*top)) {
      // Cold start: the freshly loaded top-1 serves the frame.
      serving_model = *top;
      touch(*find(*top));
    } else if (pinned_) {
      // Cold start whose load was abandoned: degrade to the premodel.
      serve_pinned(admission);
      return admission;
    } else {
      // No resident model, no pinned fallback: a misconfigured caller
      // (faults armed on a bare cache). Surface it as a contract error.
      ANOLE_CHECK(false,
                  "ModelCache::admit: load of model ", *top,
                  " abandoned or refused with an empty cache and no "
                  "pinned fallback");
    }
  }
  admission.served_model = *serving_model;
  use_counts_[admission.served_model] += 1;
  return admission;
}

void ModelCache::preload(std::span<const std::size_t> models) {
  for (std::size_t model : models) {
    ANOLE_CHECK_RANGE(model, model_count_,
                      "ModelCache::preload: unknown model id");
    ++clock_;
    if (!contains(model) && !is_quarantined(model) && fits_budget(model)) {
      load(model);
    }
  }
}

}  // namespace anole::core
