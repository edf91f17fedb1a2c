// Device-topology claims of the crash campaign: randomized fault
// schedules (transient failures, dropped/torn writes, bit flips, stale
// replays) × fault menus × retry settings × both device variants,
// asserting the no-silent-corruption contract end to end. The schedules
// are deterministic in the seed, so a failure here replays exactly.
//
// The campaign is forkoram.RunCampaign's device topology; this file
// lives with the fault injector because the injector is what that
// topology exercises. `make chaos` / forksim -campaign device run the
// full sweep.
package faults_test

import (
	"sync"
	"testing"

	forkoram "forkoram"
)

var (
	deviceOnce sync.Once
	deviceRep  forkoram.CampaignReport
)

// deviceSweep runs every device combination twice, under a seed the
// root package's tier-1 sweep does not use, on first call.
func deviceSweep(t *testing.T) *forkoram.CampaignReport {
	deviceOnce.Do(func() {
		deviceRep = forkoram.RunCampaign(forkoram.CampaignConfig{Seed: 2, Topology: forkoram.TopologyDevice, Schedules: 24})
		t.Logf("\n%s", deviceRep.String())
	})
	return &deviceRep
}

// TestChaosTransient: transient faults must be injected and recovered
// by retries. The engine flags any transient-menu schedule that mutated
// the medium as a violation.
func TestChaosTransient(t *testing.T) {
	rep := deviceSweep(t)
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	if rep.SilentCorruptions != 0 {
		t.Fatalf("%d silent corruptions", rep.SilentCorruptions)
	}
	if rep.Injected.Total() == 0 {
		t.Fatalf("no faults injected — campaign exercised nothing")
	}
	if rep.Retries.Recovered == 0 {
		t.Errorf("no retry recoveries across the campaign")
	}
}

// TestChaosCorruption: the corruption menu, always with the Merkle
// layer (payload corruption without it is silent by design — the
// documented gap, not a regression), must corrupt the medium, and every
// corruption must poison the device and be restored from a checkpoint.
func TestChaosCorruption(t *testing.T) {
	rep := deviceSweep(t)
	for _, v := range rep.Violations {
		t.Errorf("%s", v)
	}
	if rep.SilentCorruptions != 0 {
		t.Fatalf("%d silent corruptions", rep.SilentCorruptions)
	}
	if rep.Injected.Medium() == 0 {
		t.Fatalf("no medium corruption injected — campaign exercised nothing")
	}
	if rep.Poisonings == 0 || rep.Restores == 0 {
		t.Errorf("poison-and-restore never ran: %d poisonings, %d restores", rep.Poisonings, rep.Restores)
	}
}
