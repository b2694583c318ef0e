package gcmodel

import "jvmgc/internal/machine"

// Phase decomposition: the contract through which collectors explain to
// the flight recorder (internal/telemetry) where a pause's time goes.
//
// Pause pricing stays authoritative in MinorPause/FullPause/...; a
// decomposition only names the phases of a pause and their relative work
// weights (in traversal bytes, the same unit the pricers use). The JVM
// simulator tiles the actually-priced pause duration proportionally
// across these weights when a recorder is attached, so decomposition can
// never disagree with pricing and costs nothing when telemetry is off.

// PauseKind identifies which pause a decomposition is asked for.
type PauseKind int

// Pause kinds, mirroring the collector pricing entry points.
const (
	PauseYoung PauseKind = iota
	PauseFullGC
	PauseInitialMark
	PauseRemark
	PauseMixedGC
)

// PhaseWeight is one named phase of a pause with its relative work
// weight. Weights need not be normalized; zero weights are legal and
// render as zero-duration phases.
type PhaseWeight struct {
	Name   string
	Weight float64
}

// PhaseDecomposer is implemented by collectors that can attribute a
// pause's work to phases. All collectors in internal/collector implement
// it; the interface is separate from Collector so third-party collectors
// without phase attribution still satisfy the core contract.
type PhaseDecomposer interface {
	// PausePhases returns the phase decomposition for one pause of the
	// given kind priced against s. reclaim is only meaningful for
	// PauseMixedGC and mirrors the MixedPause argument.
	PausePhases(kind PauseKind, s Snapshot, reclaim machine.Bytes) []PhaseWeight
}

// MinorPhaseWeights decomposes MinorWork plus root scanning into the
// standard young-collection phases, using the same cost factors as the
// pricers.
func (c *Costs) MinorPhaseWeights(s Snapshot, promoteFactor float64) []PhaseWeight {
	pressure := c.PressureMultiplier(s.OldOccupancy)
	return []PhaseWeight{
		{Name: "root-scan", Weight: RootScanWork(s.MutatorThreads)},
		{Name: "card-scan", Weight: float64(s.OldUsed) * c.DirtyCardFrac * c.CardScan},
		{Name: "copy", Weight: float64(s.Survived) * c.Copy},
		{Name: "promote", Weight: float64(s.Promoted) * promoteFactor * pressure},
	}
}

// FullPhaseWeights decomposes FullWork plus root scanning into
// mark-compact phases.
func (c *Costs) FullPhaseWeights(s Snapshot) []PhaseWeight {
	live := float64(s.LiveYoung + s.LiveOld)
	return []PhaseWeight{
		{Name: "root-scan", Weight: RootScanWork(s.MutatorThreads)},
		{Name: "mark", Weight: live * c.Mark},
		{Name: "compact", Weight: live * c.Compact},
	}
}
