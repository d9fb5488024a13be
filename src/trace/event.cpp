#include "trace/event.h"

namespace detstl::trace {

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kBusSubmit: return "bus-submit";
    case EventKind::kBusGrant: return "bus-grant";
    case EventKind::kBusBeat: return "bus-beat";
    case EventKind::kBusRetire: return "bus-retire";
    case EventKind::kCacheHit: return "cache-hit";
    case EventKind::kCacheMiss: return "cache-miss";
    case EventKind::kCacheRefill: return "cache-refill";
    case EventKind::kCacheWriteback: return "cache-writeback";
    case EventKind::kCacheInvalidate: return "cache-invalidate";
    case EventKind::kPhaseBegin: return "phase-begin";
    case EventKind::kIrqWindow: return "irq-window";
    case EventKind::kIrqTaken: return "irq-taken";
    case EventKind::kCampaignPhaseBegin: return "campaign-phase-begin";
    case EventKind::kCampaignPhaseEnd: return "campaign-phase-end";
    case EventKind::kCampaignFault: return "campaign-fault";
    case EventKind::kCampaignDone: return "campaign-done";
    case EventKind::kDisturbance: return "disturbance";
    case EventKind::kSupAttempt: return "sup-attempt";
    case EventKind::kSupOutcome: return "sup-outcome";
    case EventKind::kSupDecision: return "sup-decision";
    case EventKind::kCkptFlush: return "ckpt-flush";
    case EventKind::kCkptLoad: return "ckpt-load";
    case EventKind::kCkptReject: return "ckpt-reject";
    case EventKind::kMissionSlice: return "mission-slice";
    case EventKind::kMissionCheck: return "mission-check";
    case EventKind::kSoakUpset: return "soak-upset";
    case EventKind::kPipeStage: return "pipe-stage";
  }
  return "?";
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kInvalidate: return "invalidate";
    case Phase::kLoadingLoop: return "loading-loop";
    case Phase::kExecutionLoop: return "execution-loop";
    case Phase::kSignatureCheck: return "signature-check";
  }
  return "?";
}

}  // namespace detstl::trace
