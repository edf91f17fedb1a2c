package sim

import "testing"

func TestSuperBlockPrefetchReducesAccessesPerMiss(t *testing.T) {
	// With spatially local workloads, super blocks turn sibling misses
	// into stash hits: fewer ORAM accesses per demand request.
	base := testConfig(ForkPath)
	base.Workloads = []string{"lbm", "lbm", "bwaves", "bwaves"} // streaming: strong spatial locality
	base.RequestsPerCore = 2500
	plain := run(t, base)

	sb := base
	sb.SuperBlock = 4
	grouped := run(t, sb)

	perMissPlain := float64(plain.RealAccesses) / float64(plain.DemandRequests)
	perMissGrouped := float64(grouped.RealAccesses) / float64(grouped.DemandRequests)
	if perMissGrouped >= perMissPlain {
		t.Fatalf("super blocks did not reduce accesses/miss: %.2f vs %.2f",
			perMissGrouped, perMissPlain)
	}
	if grouped.StashServed <= plain.StashServed {
		t.Fatalf("super blocks did not increase stash-served prefetch hits: %d vs %d",
			grouped.StashServed, plain.StashServed)
	}
}

func TestSuperBlockValidationInSim(t *testing.T) {
	cfg := testConfig(ForkPath)
	cfg.SuperBlock = 3
	if _, err := Run(cfg); err == nil {
		t.Fatal("non-power-of-two super block accepted")
	}
}
