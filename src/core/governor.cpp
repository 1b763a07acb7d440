#include "core/governor.hpp"

#include <cstdlib>
#include <string_view>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace anole::core {

const char* to_string(GovernorState state) {
  switch (state) {
    case GovernorState::kNormal: return "normal";
    case GovernorState::kThrottled: return "throttled";
    case GovernorState::kShedding: return "shedding";
  }
  ANOLE_UNREACHABLE("unknown GovernorState ", static_cast<int>(state));
}

bool governor_enabled_from_env() {
  const char* value = std::getenv("ANOLE_GOVERNOR");
  return value == nullptr || std::string_view(value) != "0";
}

// The hysteresis ordering the state machine relies on.
static_assert(RuntimeGovernor::kWindow >= 1);
static_assert(RuntimeGovernor::kRankingRefreshPeriod >= 1);
static_assert(RuntimeGovernor::kShedPeriod >= 2,
              "shedding must never drop every frame");
static_assert(RuntimeGovernor::kThrottleExitRate <=
              RuntimeGovernor::kThrottleEnterRate);
static_assert(RuntimeGovernor::kShedExitRate <=
              RuntimeGovernor::kShedEnterRate);
static_assert(RuntimeGovernor::kThrottleEnterRate <=
              RuntimeGovernor::kShedEnterRate);

GovernorDirective RuntimeGovernor::plan() {
  GovernorDirective directive;
  directive.state = state_;
  // Frames spent in the current state, counting this one as the first
  // when the state was just entered.
  const std::uint64_t in_state = planned_ - state_entered_at_;
  ++planned_;
  if (state_ == GovernorState::kNormal) return directive;

  directive.allow_swap = false;
  directive.refresh_ranking = (in_state % kRankingRefreshPeriod) == 0;
  if (state_ == GovernorState::kShedding &&
      (in_state % kShedPeriod) == kShedPeriod - 1) {
    directive.drop_frame = true;
    ++dropped_;
    trace_.push_back(GovernorEvent{planned_ - 1, state_, state_,
                                   /*dropped=*/true});
  }
  return directive;
}

void RuntimeGovernor::observe(double latency_ms, bool deadline_overrun) {
  ANOLE_CHECK_GE(latency_ms, 0.0,
                 "RuntimeGovernor::observe: negative latency");
  ++observed_;
  const std::uint8_t flag = deadline_overrun ? 1 : 0;
  if (window_filled_ < window_.size()) {
    window_[window_next_] = flag;
    ++window_filled_;
  } else {
    window_overruns_ -= window_[window_next_];
    window_[window_next_] = flag;
  }
  window_overruns_ += flag;
  window_next_ = (window_next_ + 1) % window_.size();
  // Only judge a full window: a handful of early frames should not trip
  // the controller.
  if (window_filled_ == window_.size()) maybe_transition();
}

double RuntimeGovernor::window_overrun_rate() const {
  if (window_filled_ == 0) return 0.0;
  return static_cast<double>(window_overruns_) /
         static_cast<double>(window_filled_);
}

void RuntimeGovernor::maybe_transition() {
  const double rate = window_overrun_rate();
  const std::uint64_t in_state = planned_ - state_entered_at_;
  switch (state_) {
    case GovernorState::kNormal:
      if (in_state < kMinDwell) return;
      if (rate >= kShedEnterRate) {
        transition_to(GovernorState::kShedding);
      } else if (rate >= kThrottleEnterRate) {
        transition_to(GovernorState::kThrottled);
      }
      return;
    case GovernorState::kThrottled:
      if (rate >= kShedEnterRate &&
          in_state >= kMinDwell) {
        transition_to(GovernorState::kShedding);
      } else if (rate <= kThrottleExitRate &&
                 in_state >= kRecoveryDwell) {
        transition_to(GovernorState::kNormal);
      }
      return;
    case GovernorState::kShedding:
      if (rate <= kShedExitRate &&
          in_state >= kRecoveryDwell) {
        transition_to(GovernorState::kThrottled);
      }
      return;
  }
}

void RuntimeGovernor::transition_to(GovernorState next) {
  trace_.push_back(GovernorEvent{planned_, state_, next,
                                 /*dropped=*/false});
  state_ = next;
  state_entered_at_ = planned_;
  ++transitions_;
}

std::uint64_t RuntimeGovernor::trace_hash() const {
  Fnv1a hash;
  for (const GovernorEvent& event : trace_) {
    hash.mix(event.frame);
    hash.mix(static_cast<std::uint64_t>(event.from));
    hash.mix(static_cast<std::uint64_t>(event.to));
    hash.mix(event.dropped ? 1 : 0);
  }
  return hash.value();
}

void RuntimeGovernor::reset() {
  state_ = GovernorState::kNormal;
  window_.fill(0);
  window_next_ = 0;
  window_filled_ = 0;
  window_overruns_ = 0;
  planned_ = 0;
  observed_ = 0;
  dropped_ = 0;
  transitions_ = 0;
  state_entered_at_ = 0;
  trace_.clear();
}

}  // namespace anole::core
