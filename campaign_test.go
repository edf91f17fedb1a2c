package forkoram

import (
	"sync"
	"testing"
)

// tier1 is each topology's tier-1 sweep: a fixed schedule count that
// covers every combination of its dimensions at least once (`make
// chaos` / forksim -campaign all run the full sweeps). Each sweep runs
// once per test binary: TestCampaign checks the contract every topology
// shares, and the tests after it check one topology's coverage claims
// against the same report. single runs eight passes over its 18
// combinations: its rarest kill sites take a few kills in the whole
// sweep (mid-compaction 3 and mid-scrub 10 in each of 20 runs).
var tier1 = map[Topology]*tier1Sweep{
	TopologyDevice:  {cfg: CampaignConfig{Seed: 1, Topology: TopologyDevice, Schedules: 24}},
	TopologySingle:  {cfg: CampaignConfig{Seed: 0xc0ffee, Topology: TopologySingle, Schedules: 144}},
	TopologySharded: {cfg: CampaignConfig{Seed: 0x5a4d, Topology: TopologySharded, Schedules: 36}},
	TopologyReshard: {cfg: CampaignConfig{Seed: 0x4e5d, Topology: TopologyReshard, Schedules: 40}},
}

type tier1Sweep struct {
	cfg  CampaignConfig
	once sync.Once
	rep  CampaignReport
}

// tier1Report returns topo's tier-1 report, running the sweep on first
// use.
func tier1Report(topo Topology) *CampaignReport {
	s := tier1[topo]
	s.once.Do(func() { s.rep = RunCampaign(s.cfg) })
	return &s.rep
}

// checkContract asserts what every campaign must show: its schedules
// cover each combination of the topology's dimensions, it injected
// failures, and it reported no violation — the engine itself flags
// lost acks, silent corruptions, untyped or unpoisoned device failures,
// and transient fault menus that mutated the medium.
func checkContract(t *testing.T, rep *CampaignReport) {
	t.Helper()
	t.Logf("\n%s", rep.String())
	if combos := decodeSchedule(rep.Topology, 0, 0).combos; rep.Schedules < combos {
		t.Errorf("%d schedules cannot cover %d combinations", rep.Schedules, combos)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.LostAcks != 0 || rep.SilentCorruptions != 0 {
		t.Errorf("lost acks %d, silent corruptions %d", rep.LostAcks, rep.SilentCorruptions)
	}
	if rep.Crashes+rep.RouterKills+rep.Poisonings == 0 {
		t.Errorf("campaign injected no failure")
	}
}

// TestCampaign checks every topology's tier-1 sweep against the shared
// contract. The device topology's fault-menu claims are checked with
// the fault injector, in internal/faults.
func TestCampaign(t *testing.T) {
	for _, topo := range []Topology{TopologyDevice, TopologySingle, TopologySharded, TopologyReshard} {
		t.Run(string(topo), func(t *testing.T) { checkContract(t, tier1Report(topo)) })
	}
}

// TestCampaignDeterminism: a device campaign is a pure function of its
// seed — byte-identical reports across runs.
func TestCampaignDeterminism(t *testing.T) {
	cfg := CampaignConfig{Seed: 3, Topology: TopologyDevice}
	a, b := RunCampaign(cfg), RunCampaign(cfg)
	if a.String() != b.String() {
		t.Fatalf("campaign not deterministic:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
}

// TestCrashChaosReduced runs single's combinations once more under a
// second seed, so tier-1 also lands kills at other ops and other
// points of the same configurations.
func TestCrashChaosReduced(t *testing.T) {
	rep := RunCampaign(CampaignConfig{Seed: 0x51ab, Topology: TopologySingle})
	checkContract(t, &rep)
}

// TestCrashChaosCoversEveryPoint checks the single sweep kills the
// service at every CrashPoint at least once — otherwise the "crash at
// every point" claim silently degrades to "at some points".
func TestCrashChaosCoversEveryPoint(t *testing.T) {
	rep := tier1Report(TopologySingle)
	for p := 0; p < numCrashPoints; p++ {
		if rep.PointHits[p] == 0 {
			t.Errorf("crash point %v never hit (hits: %v)", CrashPoint(p), rep.PointHits)
		}
	}
}

// TestShardedCrashChaosReduced runs sharded's combinations once more
// under a second seed, and checks the isolation property: healthy
// siblings serve reads and writes while a shard is down.
func TestShardedCrashChaosReduced(t *testing.T) {
	rep := RunCampaign(CampaignConfig{Seed: 0xfeed5, Topology: TopologySharded})
	checkContract(t, &rep)
	if rep.DownEvents == 0 || rep.SiblingReads == 0 || rep.SiblingWrites == 0 {
		t.Errorf("isolation never exercised: %d down events, %d sibling reads, %d sibling writes",
			rep.DownEvents, rep.SiblingReads, rep.SiblingWrites)
	}
}

// TestShardedCrashChaosKillsEveryShard checks the sharded sweep kills
// every shard index at least once, and that siblings served while one
// was down — otherwise the per-shard claim silently degrades to "kills
// shard 0".
func TestShardedCrashChaosKillsEveryShard(t *testing.T) {
	rep := tier1Report(TopologySharded)
	if len(rep.ShardKills) != shardedWidth {
		t.Errorf("kills per shard %v, want %d shards", rep.ShardKills, shardedWidth)
	}
	for i, n := range rep.ShardKills {
		if n == 0 {
			t.Errorf("shard %d never killed (kills: %v)", i, rep.ShardKills)
		}
	}
	if rep.DownEvents == 0 || rep.SiblingReads == 0 || rep.SiblingWrites == 0 {
		t.Errorf("isolation never exercised: %d down events, %d sibling reads, %d sibling writes",
			rep.DownEvents, rep.SiblingReads, rep.SiblingWrites)
	}
}

// TestReshardCrashChaosReduced checks the reshard sweep's claims: a
// router kill lands at every ReshardCrashPoint, the fleet is rebuilt
// and the migration resumed, clients are served while a migration is
// open, and every schedule commits its cutovers.
func TestReshardCrashChaosReduced(t *testing.T) {
	rep := tier1Report(TopologyReshard)
	for p := 0; p < numReshardPoints; p++ {
		if rep.PhaseHits[p] == 0 {
			t.Errorf("no router kill landed at %s (hits: %v)", ReshardCrashPoint(p), rep.PhaseHits)
		}
	}
	if rep.Rebuilds == 0 || rep.Resumes == 0 {
		t.Errorf("rebuild-and-resume never exercised: %d rebuilds, %d resumes", rep.Rebuilds, rep.Resumes)
	}
	if rep.MigReads == 0 || rep.MigWrites == 0 {
		t.Errorf("no-full-stop property never exercised: %d reads, %d writes during migration",
			rep.MigReads, rep.MigWrites)
	}
	if rep.Migrations < uint64(rep.Schedules) {
		t.Errorf("only %d cutovers committed across %d schedules", rep.Migrations, rep.Schedules)
	}
}
