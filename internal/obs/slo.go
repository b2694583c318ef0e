package obs

import (
	"sync"
	"time"
)

// SLOConfig defines the service objectives the monitor burns against.
// Zero values select the defaults.
type SLOConfig struct {
	// LatencyThreshold is the "fast enough" bound; a request slower
	// than it spends latency error budget. Default 500 ms.
	LatencyThreshold time.Duration
	// LatencyTarget is the objective fraction of requests under the
	// threshold (default 0.99 — "99% of requests under 500 ms").
	LatencyTarget float64
	// ErrorTarget is the objective success fraction (default 0.999).
	ErrorTarget float64
	// Windows are the burn-rate evaluation windows, shortest first
	// (default 5 m and 1 h — the classic fast/slow multiwindow pair).
	Windows []time.Duration
	// Buckets is the ring resolution per window (default 30).
	Buckets int
	// Now is the wall clock (nil = time.Now); tests inject a fake.
	Now func() time.Time
}

func (c SLOConfig) withDefaults() SLOConfig {
	if c.LatencyThreshold <= 0 {
		c.LatencyThreshold = 500 * time.Millisecond
	}
	if c.LatencyTarget <= 0 || c.LatencyTarget >= 1 {
		c.LatencyTarget = 0.99
	}
	if c.ErrorTarget <= 0 || c.ErrorTarget >= 1 {
		c.ErrorTarget = 0.999
	}
	if len(c.Windows) == 0 {
		c.Windows = []time.Duration{5 * time.Minute, time.Hour}
	}
	if c.Buckets <= 0 {
		c.Buckets = 30
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SLO is a multi-window burn-rate monitor: every observation lands in a
// set of bucketed sliding windows, and the burn rate per window is the
// fraction of error budget being spent relative to the rate that would
// exactly exhaust it — burn 1.0 means "on track to spend the whole
// budget", 14.4 means "the monthly budget is gone in two days". The
// multiwindow reading (short AND long window both burning) is what
// separates a real incident from a blip; see the Status severity.
//
// A nil *SLO is a valid disabled monitor (no-op Observe, zero Status).
type SLO struct {
	cfg SLOConfig

	mu      sync.Mutex
	windows []sloWindow
	// lifetime totals
	total, slow, errors int64
}

// sloWindow is one sliding window: a ring of buckets each covering
// width/len(buckets) of wall time, identified by epoch number so stale
// buckets are recognized lazily.
type sloWindow struct {
	width   time.Duration
	bucketW time.Duration
	buckets []sloBucket
}

type sloBucket struct {
	epoch               int64
	total, slow, errors int64
}

// NewSLO builds a monitor.
func NewSLO(cfg SLOConfig) *SLO {
	cfg = cfg.withDefaults()
	s := &SLO{cfg: cfg}
	for _, w := range cfg.Windows {
		bw := w / time.Duration(cfg.Buckets)
		if bw <= 0 {
			bw = time.Second
		}
		s.windows = append(s.windows, sloWindow{
			width: w, bucketW: bw,
			buckets: make([]sloBucket, cfg.Buckets),
		})
	}
	return s
}

// Enabled reports whether the monitor records anything (false on nil).
func (s *SLO) Enabled() bool { return s != nil }

// Config returns the resolved objectives (zero on nil).
func (s *SLO) Config() SLOConfig {
	if s == nil {
		return SLOConfig{}
	}
	return s.cfg
}

// Observe records one finished request.
func (s *SLO) Observe(latency time.Duration, failed bool) {
	if s == nil {
		return
	}
	slow := latency > s.cfg.LatencyThreshold
	now := s.cfg.Now()
	s.mu.Lock()
	s.total++
	if slow {
		s.slow++
	}
	if failed {
		s.errors++
	}
	for i := range s.windows {
		w := &s.windows[i]
		epoch := now.UnixNano() / int64(w.bucketW)
		b := &w.buckets[int(epoch%int64(len(w.buckets)))]
		if b.epoch != epoch {
			*b = sloBucket{epoch: epoch}
		}
		b.total++
		if slow {
			b.slow++
		}
		if failed {
			b.errors++
		}
	}
	s.mu.Unlock()
}

// WindowStatus is the burn reading of one window.
type WindowStatus struct {
	Window        string  `json:"window"`
	Total         int64   `json:"total"`
	Slow          int64   `json:"slow"`
	Errors        int64   `json:"errors"`
	SlowFraction  float64 `json:"slow_fraction"`
	ErrorFraction float64 `json:"error_fraction"`
	// LatencyBurnRate and ErrorBurnRate are budget-spend multipliers:
	// 1.0 exactly exhausts the budget over the objective period.
	LatencyBurnRate float64 `json:"latency_burn_rate"`
	ErrorBurnRate   float64 `json:"error_burn_rate"`
}

// Status is the monitor's full reading.
type Status struct {
	LatencyThresholdSeconds float64        `json:"latency_threshold_seconds"`
	LatencyTarget           float64        `json:"latency_target"`
	ErrorTarget             float64        `json:"error_target"`
	Windows                 []WindowStatus `json:"windows"`
	// Severity is the multiwindow alert reading: "page" when every
	// window burns >14.4x, "warn" above 6x, "watch" above 1x, else "ok"
	// ("idle" before any traffic).
	Severity string `json:"severity"`
	// Lifetime totals since the monitor started.
	Total  int64 `json:"total"`
	Slow   int64 `json:"slow"`
	Errors int64 `json:"errors"`
}

// Status computes the burn reading at the current clock.
func (s *SLO) Status() Status {
	if s == nil {
		return Status{}
	}
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	st := Status{
		LatencyThresholdSeconds: s.cfg.LatencyThreshold.Seconds(),
		LatencyTarget:           s.cfg.LatencyTarget,
		ErrorTarget:             s.cfg.ErrorTarget,
		Total:                   s.total,
		Slow:                    s.slow,
		Errors:                  s.errors,
	}
	for i := range s.windows {
		w := &s.windows[i]
		cur := now.UnixNano() / int64(w.bucketW)
		ws := WindowStatus{Window: w.width.String()}
		for _, b := range w.buckets {
			// Live buckets cover (cur-len, cur]; anything else is stale.
			if b.epoch > cur-int64(len(w.buckets)) && b.epoch <= cur {
				ws.Total += b.total
				ws.Slow += b.slow
				ws.Errors += b.errors
			}
		}
		st.Windows = append(st.Windows, ws)
	}
	st.burn()
	return st
}

// burn derives every window's fractions and burn rates from its counts,
// against the status's objectives, and the severity from the smallest
// window burn.
func (st *Status) burn() {
	latBudget := 1 - st.LatencyTarget
	errBudget := 1 - st.ErrorTarget
	minBurn := 0.0
	for i := range st.Windows {
		ws := &st.Windows[i]
		if ws.Total > 0 && latBudget > 0 && errBudget > 0 {
			ws.SlowFraction = float64(ws.Slow) / float64(ws.Total)
			ws.ErrorFraction = float64(ws.Errors) / float64(ws.Total)
			ws.LatencyBurnRate = ws.SlowFraction / latBudget
			ws.ErrorBurnRate = ws.ErrorFraction / errBudget
		}
		burn := max(ws.LatencyBurnRate, ws.ErrorBurnRate)
		if i == 0 || burn < minBurn {
			minBurn = burn
		}
	}
	st.Severity = severityFor(minBurn, st.Total)
}

// severityFor maps the multiwindow minimum burn rate onto the alert
// severity: every window must burn for the reading to escalate, so a
// short blip (fast window only) stays sub-page and a long-ago incident
// (slow window only) cannot re-page.
func severityFor(minBurn float64, total int64) string {
	switch {
	case total == 0:
		return "idle"
	case minBurn > 14.4:
		return "page"
	case minBurn > 6:
		return "warn"
	case minBurn > 1:
		return "watch"
	default:
		return "ok"
	}
}

// MergeStatus folds per-node SLO readings into one fleet-wide Status:
// window counts are summed by window label, fractions and burn rates
// are recomputed from the summed counts against the first status's
// objectives (a fleet runs one SLO policy), and the severity is
// re-derived with the same multiwindow rule a single node uses. Empty
// input returns an idle Status with no windows.
func MergeStatus(sts ...Status) Status {
	var out Status
	var windows []string
	byLabel := map[string]*WindowStatus{}
	for _, st := range sts {
		if out.LatencyTarget == 0 && st.LatencyTarget != 0 {
			out.LatencyThresholdSeconds = st.LatencyThresholdSeconds
			out.LatencyTarget = st.LatencyTarget
			out.ErrorTarget = st.ErrorTarget
		}
		out.Total += st.Total
		out.Slow += st.Slow
		out.Errors += st.Errors
		for _, w := range st.Windows {
			ws, ok := byLabel[w.Window]
			if !ok {
				ws = &WindowStatus{Window: w.Window}
				byLabel[w.Window] = ws
				windows = append(windows, w.Window)
			}
			ws.Total += w.Total
			ws.Slow += w.Slow
			ws.Errors += w.Errors
		}
	}
	for _, label := range windows {
		out.Windows = append(out.Windows, *byLabel[label])
	}
	out.burn()
	return out
}
