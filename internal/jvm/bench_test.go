package jvm

import (
	"testing"

	"jvmgc/internal/event"
	"jvmgc/internal/machine"
	"jvmgc/internal/simtime"
)

// BenchmarkSimulatedHourCMS measures the laboratory's own performance:
// how much wall time one simulated hour of a GC-heavy CMS workload costs.
func BenchmarkSimulatedHourCMS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Machine:   machine.New(machine.PaperTestbed()),
			Collector: mustCollector(b, "CMS"),
			Geometry:  geo(8*machine.GB, 2*machine.GB),
			Seed:      1,
		}
		j := New(cfg, benchWorkload())
		j.RunFor(simtime.Hour)
	}
}

// BenchmarkSimulatedHourG1 is the G1 counterpart (adaptive young sizing
// adds events).
func BenchmarkSimulatedHourG1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Machine:   machine.New(machine.PaperTestbed()),
			Collector: mustCollector(b, "G1"),
			Geometry:  geo(8*machine.GB, 2*machine.GB),
			Seed:      1,
		}
		j := New(cfg, benchWorkload())
		j.RunFor(simtime.Hour)
	}
}

// BenchmarkSimulatedHourG1Parallel steps ensembles of up to four G1
// JVMs, each on its own wheel, through sweep.Run on GOMAXPROCS workers;
// ns/op is one simulated JVM-hour, directly comparable to
// BenchmarkSimulatedHourG1. On a >= 4-core host the speedup target
// (>= 1.5x) shows up as this benchmark running below 2/3 of the
// sequential one; on one core it measures the fan-out's overhead on
// the one-worker path.
func BenchmarkSimulatedHourG1Parallel(b *testing.B) {
	for done := 0; done < b.N; {
		k := b.N - done
		if k > 4 {
			k = 4
		}
		jvms := make([]*JVM, k)
		for i := range jvms {
			cfg := Config{
				Machine:   machine.New(machine.PaperTestbed()),
				Collector: mustCollector(b, "G1"),
				Geometry:  geo(8*machine.GB, 2*machine.GB),
				Seed:      uint64(1 + i),
				Clock:     event.New(),
			}
			jvms[i] = New(cfg, benchWorkload())
		}
		stepWheels(jvms, 0, simtime.Hour)
		done += k
	}
}
