#include "metrics/trace_ring.h"

#include "util/clock.h"

namespace msw::metrics {

const char*
trace_event_name(TraceEvent event)
{
    switch (event) {
      case TraceEvent::kNone:
        return "none";
      case TraceEvent::kSweepBegin:
        return "sweep_begin";
      case TraceEvent::kSweepEnd:
        return "sweep_end";
      case TraceEvent::kPhaseDirtyScan:
        return "phase_dirty_scan";
      case TraceEvent::kPhaseMark:
        return "phase_mark";
      case TraceEvent::kPhaseDrain:
        return "phase_drain";
      case TraceEvent::kPhaseRelease:
        return "phase_release";
      case TraceEvent::kStwPause:
        return "stw_pause";
      case TraceEvent::kAllocPause:
        return "alloc_pause";
      case TraceEvent::kWatchdogFallback:
        return "watchdog_fallback";
      case TraceEvent::kEmergencySweep:
        return "emergency_sweep";
      case TraceEvent::kOomReturn:
        return "oom_return";
      case TraceEvent::kForkChild:
        return "fork_child";
      case TraceEvent::kCount:
        break;
    }
    return "unknown";
}

void
TraceRing::push(TraceEvent event, std::uint64_t a0, std::uint64_t a1)
{
    // msw-relaxed(trace-ring): ticket handout; fetch_add RMW atomicity
    // gives each producer a distinct slot, and the per-slot sequence
    // word below carries the publication.
    const std::uint64_t ticket =
        cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slots_[ticket & (kSlots - 1)];
    // Mark the slot unstable. The acquire half of the RMW keeps the
    // payload stores below from moving above it; the release store at
    // the end keeps them from moving below. Readers seeing an odd (or
    // changed) sequence discard the slot.
    (void)s.seq.exchange(ticket * 2 + 1, std::memory_order_acq_rel);
    // msw-relaxed(trace-ring): payload stores bracketed by the
    // sequence-word edges above/below; no independent ordering needed.
    s.ts.store(util::monotonic_ns(), std::memory_order_relaxed);
    // msw-relaxed(trace-ring): as above — bracketed payload store.
    s.ev.store(static_cast<std::uint64_t>(event),
               std::memory_order_relaxed);
    // msw-relaxed(trace-ring): as above — bracketed payload store.
    s.a0.store(a0, std::memory_order_relaxed);
    // msw-relaxed(trace-ring): as above — bracketed payload store.
    s.a1.store(a1, std::memory_order_relaxed);
    s.seq.store(ticket * 2 + 2, std::memory_order_release);
}

std::size_t
TraceRing::snapshot(TraceRecord* out, std::size_t cap) const
{
    // msw-relaxed(trace-ring): cursor peek; a concurrent push only
    // shifts which window of tickets the loop below inspects, and each
    // slot re-validates itself through its sequence word.
    const std::uint64_t cur = cursor_.load(std::memory_order_relaxed);
    std::uint64_t window = cur < kSlots ? cur : kSlots;
    if (window > cap)
        window = cap;
    std::size_t n = 0;
    for (std::uint64_t t = cur - window; t < cur; ++t) {
        const Slot& s = slots_[t & (kSlots - 1)];
        const std::uint64_t want = t * 2 + 2;
        const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
        if (seq1 != want)
            continue;  // overwritten by a newer lap, or mid-write
        TraceRecord r;
        r.ticket = t;
        // msw-relaxed(trace-ring): payload loads validated by the
        // sequence recheck below; the residual reorder window returns a
        // stale-but-well-formed diagnostic record, tolerated by design.
        r.ts_ns = s.ts.load(std::memory_order_relaxed);
        // msw-relaxed(trace-ring): as above — validated payload load.
        r.event =
            static_cast<TraceEvent>(s.ev.load(std::memory_order_relaxed));
        // msw-relaxed(trace-ring): as above — validated payload load.
        r.a0 = s.a0.load(std::memory_order_relaxed);
        // msw-relaxed(trace-ring): as above — validated payload load.
        r.a1 = s.a1.load(std::memory_order_relaxed);
        // msw-relaxed(trace-ring): sequence recheck; any overlapping
        // writer changed seq (odd or a newer even), discarding the slot.
        if (s.seq.load(std::memory_order_relaxed) != seq1)
            continue;
        out[n++] = r;
    }
    return n;
}

std::uint64_t
TraceRing::pushed() const
{
    // msw-relaxed(trace-ring): statistics read; exact once producers
    // quiesce (thread join / quiesce point orders it).
    return cursor_.load(std::memory_order_relaxed);
}

void
TraceRing::reset()
{
    // msw-relaxed(trace-ring): reset with no concurrent writers by
    // contract; the caller's quiesce point orders it.
    cursor_.store(0, std::memory_order_relaxed);
    for (Slot& s : slots_) {
        // msw-relaxed(trace-ring): as above — quiesced reset.
        s.seq.store(0, std::memory_order_relaxed);
        // msw-relaxed(trace-ring): as above — quiesced reset.
        s.ts.store(0, std::memory_order_relaxed);
        // msw-relaxed(trace-ring): as above — quiesced reset.
        s.ev.store(0, std::memory_order_relaxed);
        // msw-relaxed(trace-ring): as above — quiesced reset.
        s.a0.store(0, std::memory_order_relaxed);
        // msw-relaxed(trace-ring): as above — quiesced reset.
        s.a1.store(0, std::memory_order_relaxed);
    }
}

}  // namespace msw::metrics
