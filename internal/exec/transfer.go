package exec

import (
	"fmt"

	"capuchin/internal/fault"
	"capuchin/internal/hw"
	"capuchin/internal/obs"
	"capuchin/internal/sim"
	"capuchin/internal/tensor"
)

// pcie returns direction dir's stream and its link.
func (s *Session) pcie(dir fault.Direction) (*sim.Stream, hw.Link) {
	if dir == fault.D2H {
		return s.d2h, s.dev.D2H
	}
	return s.h2d, s.dev.H2D
}

// transferEstimate is the duration of a copy of bytes in direction dir,
// the quantity in the paper's Eq. 1. Under comm-aware scheduling it
// reflects the bandwidth a pending all-reduce window leaves at the action
// anchor, so Free-Time ranking sees the real cost of swapping into
// collective traffic.
func (s *Session) transferEstimate(dir fault.Direction, bytes int64) sim.Time {
	_, link := s.pcie(dir)
	if s.cfg.CommAware {
		if w, ok := s.commSlowdownAt(s.actionAnchor); ok {
			return link.DegradedTransferTime(bytes, w.Slowdown)
		}
	}
	return link.TransferTime(bytes)
}

// mandatoryAttempts is the attempt budget of an on-demand swap-in or a
// passive eviction. Proactive copies get one attempt and fail fast.
func (s *Session) mandatoryAttempts() int { return s.inj.Plan().TransferRetries() + 1 }

// landed is a completed transfer: when it ended, and the all-reduce
// window deferral consulted (if commOK).
type landed struct {
	end    sim.Time
	comm   CommWindow
	commOK bool
}

// foldComm adds the consulted all-reduce window to a proactive copy's
// swap-out or prefetch decision.
func (l landed) foldComm(d *obs.Decision) {
	if l.commOK {
		d.CommSlowdown, d.CommUntil = l.comm.Slowdown, l.comm.End
	}
}

// transfer is the executor's one model of the PCIe link: every copy of t
// in direction dir goes through it, whether a proactive eviction
// (labelSwapOut, §5.3), an in-trigger prefetch (labelSwapIn, §5.4), an
// on-demand swap-in (labelOnDemand, §5.2) or a passive eviction
// (labelPassive, §5.2). The copy starts no earlier than earliest, or
// after a pending all-reduce window when comm-aware deferral finds that
// sooner. An injected DMA abort holds the link to the attempt's
// half-duration abort point, and the next attempt waits out
// sim.Backoff; after attempts aborts transfer returns a *TransferError.
//
// Every deferred copy records a comm-defer decision, and the caller of a
// proactive copy also folds the consulted window into its own decision.
// Only the Queued stamp depends on the kind: a proactive copy is stamped
// at earliest, its action anchor, and a mandatory copy after deferral.
// A prefetch's buffer allocation is traced just before its span.
func (s *Session) transfer(dir fault.Direction, kind labelKind, t *tensor.Tensor, earliest sim.Time, attempts int) (landed, error) {
	st, link := s.pcie(dir)
	key, bytes := t.ID, t.Bytes()
	proactive := kind == labelSwapOut || kind == labelSwapIn
	var l landed
	queued := earliest
	if adj, w, ok := s.deferForComm(st, link, bytes, earliest); ok {
		l.comm, l.commOK = w, true
		if adj != earliest {
			earliest = adj
			if s.tr != nil {
				s.decide(obs.Decision{
					Tensor: key, Action: "comm-defer", Bytes: bytes,
					Reason:       "deferred " + s.tensorName(kind, t) + " past a pending all-reduce window (earlier completion than contending)",
					CommSlowdown: w.Slowdown, CommUntil: w.End,
				})
			}
		}
	}
	if !proactive {
		queued = earliest
	}
	for attempt := 0; ; attempt++ {
		dur := link.DegradedTransferTime(bytes, s.linkSlowdown(sim.MaxTime(st.AvailableAt(), earliest)))
		if !s.inj.TransferFails(dir, key) {
			start, end := st.Run(earliest, dur)
			if s.tr != nil {
				if kind == labelSwapIn {
					s.memEvent(labelAlloc, "prefetch", t, bytes, queued)
				}
				s.tr.Emit(obs.Event{
					Kind: obs.KindSpan, Cat: "transfer", Name: s.tensorName(kind, t), Lane: st.Name(),
					Start: start, End: end, Queued: queued, Iter: s.iter,
					Tensor: key, Bytes: bytes,
				})
			}
			l.end = end
			return l, nil
		}
		s.stats.TransferFaults++
		failStart, failEnd := st.Run(earliest, dur/2)
		if s.tr != nil {
			s.tr.Emit(obs.Event{
				Kind: obs.KindSpan, Cat: "transfer", Name: s.tensorName(kind, t) + " !fault", Lane: st.Name(),
				Start: failStart, End: failEnd, Queued: queued, Iter: s.iter,
				Tensor: key, Bytes: bytes, Detail: "aborted",
			})
			s.laneInstant("fault", "dma-abort", st.Name(), key, failEnd)
		}
		if attempt+1 >= attempts {
			return l, &TransferError{Dir: dir, TensorID: key, Bytes: bytes, Attempts: attempt + 1, GaveUpAt: failEnd}
		}
		s.stats.TransferRetries++
		if s.tr != nil {
			s.laneInstant("fault", "retry", st.Name(), key, failEnd)
		}
		earliest = failEnd + sim.Backoff(s.inj.Plan().Backoff(), attempt)
	}
}

// reserveHost reserves pinned host memory for t's copy, first drawing the
// injected reservation fault, whose instant goes on lane at time at. An
// injected fault's error wraps fault.ErrInjected.
func (s *Session) reserveHost(t *tensor.Tensor, lane string, at sim.Time) error {
	if s.inj.HostFails(t.ID) {
		s.stats.HostFaults++
		if s.tr != nil {
			s.laneInstant("fault", "host-fault", lane, t.ID, at)
		}
		return fmt.Errorf("host reservation for %s: %w", t.ID, fault.ErrInjected)
	}
	return s.host.ReserveIdx(int(t.Idx), t.ID, t.Bytes())
}
