// The chase's one capture path for its four opt-in channels: trace
// lines, the provenance log, per-member aggregates (Profile, or
// Footprint without the scan timers) and per-round spans. arm sets the
// capture up, reset clears it in place for a pooled engine, every
// firing, insert and scan-region site makes one call into it guarded by
// capture.on, and seal reads it into the Result. Members are named by
// their position in sigma. Capture only observes (TestCaptureMatrix).

package chase

import (
	"fmt"
	"strings"
	"time"

	"indfd/internal/obs"
	"indfd/internal/schema"
)

// capture is the engine's opt-in recording state.
type capture struct {
	on    bool // any of trace, prov, agg: the one guard of every capture site
	trace bool
	prov  bool
	agg   bool // per-member aggregates (Profile or Footprint)
	timed bool // Profile: scan regions are timed

	lines []string // trace lines; Result.Trace aliases them
	log   prov     // the provenance log (provenance.go)
	deps  []depAgg // per-member aggregates, indexed by position in sigma
	round int64    // the current chase round, for rounds-active

	goalDesc string    // the goal's text, for the span and the derivation
	span     *obs.Span // the entry point's span; nil when instrumentation is off
	rspan    *obs.Span // the current round's child span
}

// depAgg accumulates one Σ member's work. lastRound deduplicates the
// rounds-active count: a member firing many times within one round is
// active once.
type depAgg struct {
	firings, produced, scanned, scanNS int64
	rounds, lastRound                  int64
}

// fire records one state-changing application (an FD/RD union, an IND
// tuple insert) in the given chase round.
func (a *depAgg) fire(round int64) {
	a.firings++
	if a.lastRound != round {
		a.lastRound = round
		a.rounds++
	}
}

// arm switches the channels on for one run over an engine compiled from
// members dependencies. The capture is clean: fresh, or cleared by reset.
func (c *capture) arm(opt Options, members int) {
	c.trace, c.prov = opt.Trace, opt.Provenance
	c.agg, c.timed = opt.Profile || opt.Footprint, opt.Profile
	c.on = c.trace || c.prov || c.agg
	if c.agg {
		if cap(c.deps) < members {
			c.deps = make([]depAgg, members)
		}
		c.deps = c.deps[:members]
	}
}

// reset clears the capture in place: the aggregates are zeroed (their
// lastRound too) and every slice keeps its backing array, except the
// trace lines, which the last Result still holds.
func (c *capture) reset() {
	clear(c.deps)
	c.log.reset()
	*c = capture{log: c.log, deps: c.deps[:0]}
}

// beginRound advances the round counter and opens the round's child
// span, for the first spanRoundCap rounds; endRound closes it.
func (c *capture) beginRound() {
	c.round++
	if c.round <= spanRoundCap {
		c.rspan = c.span.StartSpan("round")
	}
}

func (c *capture) endRound(tuples int) {
	c.rspan.SetInt("tuples", int64(tuples))
	c.rspan.End()
	c.rspan = nil
}

// clock starts a scan region's timer under Profile; since reads it (0
// when untimed, so the clock is never called).
func (c *capture) clock() time.Time {
	if !c.timed {
		return time.Time{}
	}
	return time.Now()
}

func (c *capture) since(start time.Time) int64 {
	if !c.timed {
		return 0
	}
	return time.Since(start).Nanoseconds()
}

// region charges the member at position at with one scan region: n
// tuples scanned in ns of scan time.
func (c *capture) region(at int32, n int, ns int64) {
	if c.agg {
		c.deps[at].scanned += int64(n)
		c.deps[at].scanNS += ns
	}
}

func (c *capture) linef(format string, args ...any) {
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

// inserted records a new tuple; provenance takes it for a seed until
// noteIND names the firing that made it.
func (c *capture) inserted(tid int32) {
	if c.prov {
		c.log.noteTuple(tid)
	}
}

// noteFD records FD i equating a and b on the tuple pair (tid, uid).
func (e *engine) noteFD(i int, tid, uid, a, b int32) {
	c, fs := &e.cap, &e.fds[i]
	if c.prov {
		c.log.noteUnion(evFD, int32(i), tid, uid, a, b)
	}
	if c.agg {
		c.deps[fs.at].fire(c.round)
	}
	if c.trace {
		c.linef("FD %v equates %v and %v (tuples %v, %v agree on %s)",
			fs.d, e.describe(a), e.describe(b), e.describeTuple(e.tupleVals(tid)),
			e.describeTuple(e.tupleVals(uid)), schema.JoinAttrs(fs.d.X))
	}
}

// noteRD records RD i equating a and b within tuple tid.
func (e *engine) noteRD(i int, tid, a, b int32) {
	c, ds := &e.cap, &e.rds[i]
	if c.prov {
		c.log.noteUnion(evRD, int32(i), tid, -1, a, b)
	}
	if c.agg {
		c.deps[ds.at].fire(c.round)
	}
	if c.trace {
		c.linef("RD %v equates %v and %v within %v",
			ds.d, e.describe(a), e.describe(b), e.describeTuple(e.tupleVals(tid)))
	}
}

// noteIND records IND i adding the just-inserted tuple u as the witness
// of tuple src (values t).
func (e *engine) noteIND(i int, src int32, t, u []int32) {
	c, is := &e.cap, &e.inds[i]
	if c.prov {
		c.log.origin(int32(len(e.tupOff)-1), int32(i), src)
	}
	if c.agg {
		c.deps[is.at].fire(c.round)
		c.deps[is.at].produced++
	}
	if c.trace {
		c.linef("IND %v adds %v to %s for %v", is.d, e.describeTuple(u), is.d.RRel, e.describeTuple(t))
	}
}

// seal reads the channels into res and closes the chase span; finish
// and the cancellation path share it (cancel is the context's error on
// the latter). Result.Used is the touched members, or on an Implied
// verdict with provenance the derivation's members.
func (e *engine) seal(res Result, cancel error) (Result, error) {
	c := &e.cap
	res.Tuples = e.tuples
	res.Trace = c.lines
	res.Profile = e.profile()
	res.Used = c.touched()
	if cancel == nil && res.Verdict == Implied && c.prov {
		d, used, err := e.extractDerivation()
		if err != nil {
			c.span.End()
			return res, err
		}
		res.Derivation, res.Used = d, used
	}
	if cancel != nil {
		c.span.SetAttr("cancelled", cancel.Error())
	} else {
		c.span.SetAttr("verdict", res.Verdict.String())
	}
	c.span.SetInt("rounds", int64(res.Rounds))
	c.span.SetInt("tuples", int64(res.Tuples))
	c.span.End()
	return res, cancel
}

// touched returns the ascending positions in sigma of the members that
// fired or scanned at least once; nil when no aggregates were armed.
func (c *capture) touched() []int {
	if !c.agg {
		return nil
	}
	used := make([]int, 0, len(c.deps))
	for i, a := range c.deps {
		if a.firings > 0 || a.scanned > 0 {
			used = append(used, i)
		}
	}
	return used
}

// profile renders the aggregates, one entry per Σ member (cold ones
// included), hottest first; nil unless Options.Profile was set.
func (e *engine) profile() *obs.DepProfile {
	if !e.cap.timed {
		return nil
	}
	p := &obs.DepProfile{Deps: make([]obs.DepCost, len(e.cap.deps))}
	for i, a := range e.cap.deps {
		d := e.sigma[i]
		p.Deps[i] = obs.DepCost{
			Dep: d.String(), Kind: strings.ToLower(d.Kind().String()),
			Firings: a.firings, Produced: a.produced,
			Scanned: a.scanned, ScanNS: a.scanNS, Rounds: a.rounds,
		}
	}
	p.Sort()
	return p
}
