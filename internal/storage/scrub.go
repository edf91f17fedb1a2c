package storage

import (
	"errors"

	"forkoram/internal/tree"
)

// ScrubStats aggregates what a scrub walk observed. PerLevelCorrupt[l]
// counts corrupt frames detected at tree level l (one entry per level),
// so operators can see whether damage clusters near the treetop (hot,
// cached) or the leaves (cold, disk-resident).
type ScrubStats struct {
	Slices          uint64   // scrub slices executed
	Frames          uint64   // frames audited
	Torn            uint64   // torn/CRC-failed frames (FrameError)
	Undecodable     uint64   // frames whose sealed image fails decrypt/decode
	HashMismatches  uint64   // Merkle verification failures (Integrity enabled)
	TierDivergence  uint64   // medium disagrees with the healthy RAM tier
	Repaired        uint64   // corrupt frames rewritten from a healthy copy
	Unrepairable    uint64   // corrupt frames with no healthy copy to repair from
	PerLevelCorrupt []uint64 // corrupt frames by tree level
}

// NoteCorrupt records one corrupt frame at the given level.
func (s *ScrubStats) NoteCorrupt(level uint) {
	for uint(len(s.PerLevelCorrupt)) <= level {
		s.PerLevelCorrupt = append(s.PerLevelCorrupt, 0)
	}
	s.PerLevelCorrupt[level]++
}

// Corrupt returns the total corrupt frames detected.
func (s ScrubStats) Corrupt() uint64 {
	var n uint64
	for _, c := range s.PerLevelCorrupt {
		n += c
	}
	return n
}

// Add accumulates o into s (PerLevelCorrupt merges element-wise).
func (s *ScrubStats) Add(o ScrubStats) {
	s.Slices += o.Slices
	s.Frames += o.Frames
	s.Torn += o.Torn
	s.Undecodable += o.Undecodable
	s.HashMismatches += o.HashMismatches
	s.TierDivergence += o.TierDivergence
	s.Repaired += o.Repaired
	s.Unrepairable += o.Unrepairable
	for l, c := range o.PerLevelCorrupt {
		for len(s.PerLevelCorrupt) <= l {
			s.PerLevelCorrupt = append(s.PerLevelCorrupt, 0)
		}
		s.PerLevelCorrupt[l] += c
	}
}

// Delta returns s - prev, field-wise (PerLevelCorrupt element-wise;
// levels only ever grow).
func (s ScrubStats) Delta(prev ScrubStats) ScrubStats {
	d := ScrubStats{
		Slices:         s.Slices - prev.Slices,
		Frames:         s.Frames - prev.Frames,
		Torn:           s.Torn - prev.Torn,
		Undecodable:    s.Undecodable - prev.Undecodable,
		HashMismatches: s.HashMismatches - prev.HashMismatches,
		TierDivergence: s.TierDivergence - prev.TierDivergence,
		Repaired:       s.Repaired - prev.Repaired,
		Unrepairable:   s.Unrepairable - prev.Unrepairable,
	}
	for l, c := range s.PerLevelCorrupt {
		var p uint64
		if l < len(prev.PerLevelCorrupt) {
			p = prev.PerLevelCorrupt[l]
		}
		d.PerLevelCorrupt = append(d.PerLevelCorrupt, c-p)
	}
	return d
}

// ScrubAll audits every frame of the disk store in one pass: the
// torn-write check (epoch + CRC), and — when decode is set — a full
// decrypt/decode plausibility check of each sealed image. Detection
// only (an offline scrub has no healthy tier to repair from); corrupt
// frames are tallied in the returned stats, not surfaced as errors.
// Returns the nodes found corrupt so tooling can report coordinates.
func (d *Disk) ScrubAll(decode bool) (ScrubStats, []tree.Node) {
	var st ScrubStats
	st.Slices = 1
	var bad []tree.Node
	nodes := d.tr.Nodes()
	for n := tree.Node(0); n < nodes; n++ {
		st.Frames++
		if _, err := d.AuditFrame(n); err != nil {
			st.Torn++
			st.NoteCorrupt(d.tr.Level(n))
			bad = append(bad, n)
			continue
		}
		if !decode {
			continue
		}
		if _, err := d.ReadBucket(n); err != nil {
			if errors.Is(err, ErrCorrupt) {
				st.Undecodable++
				st.NoteCorrupt(d.tr.Level(n))
				bad = append(bad, n)
				continue
			}
			// IO errors are not corruption verdicts; count nothing.
		}
	}
	return st, bad
}
