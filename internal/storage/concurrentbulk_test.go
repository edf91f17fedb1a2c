package storage

import (
	"fmt"
	"sync"
	"testing"

	"forkoram/internal/block"
	"forkoram/internal/tree"
)

// TestConcurrentDisjointBulk exercises the concurrent bulk contract
// (see Mem): one goroutine bulk-reading and one bulk-writing, always
// over disjoint node sets, with per-bucket traffic interleaved from the
// writer side. Run under -race this pins the
// staged locking in ReadBuckets/WriteBuckets (snapshot/claim under mu,
// crypto outside, publish under mu) and the per-role scratch split.
func TestConcurrentDisjointBulk(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("parallel=%v", parallel), func(t *testing.T) {
			if parallel {
				forceBulkParallel(t)
			}
			tr := tree.MustNew(4)
			geo := block.Geometry{Z: 4, PayloadSize: 32}
			m, err := NewMem(tr, geo, make([]byte, 16))
			if err != nil {
				t.Fatal(err)
			}
			// Split the tree in two static halves: the writer owns the low
			// nodes, the reader the high ones — disjoint by construction.
			half := tree.Node(tr.Nodes() / 2)
			var wrNs, rdNs []tree.Node
			for n := tree.Node(0); n < tree.Node(tr.Nodes()); n++ {
				if n < half {
					wrNs = append(wrNs, n)
				} else {
					rdNs = append(rdNs, n)
				}
			}
			// Seed the reader's half so decrypts do real work.
			seed := make([]block.Bucket, len(rdNs))
			for i := range rdNs {
				seed[i] = testBucket(uint64(i), uint64(tr.Leaves())-1, byte(i))
			}
			if err := m.WriteBuckets(rdNs, seed); err != nil {
				t.Fatal(err)
			}

			const rounds = 200
			var wg sync.WaitGroup
			errs := make(chan error, 2)
			wg.Add(2)
			go func() {
				defer wg.Done()
				bks := make([]block.Bucket, len(wrNs))
				for r := 0; r < rounds; r++ {
					for i := range wrNs {
						bks[i] = testBucket(uint64(100+i), uint64(r)%tr.Leaves(), byte(r))
					}
					if err := m.WriteBuckets(wrNs, bks); err != nil {
						errs <- err
						return
					}
					// Interleave per-bucket traffic with the bulk
					// calls.
					if _, err := m.ReadBucket(wrNs[r%len(wrNs)]); err != nil {
						errs <- err
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				out := make([]block.Bucket, len(rdNs))
				for r := 0; r < rounds; r++ {
					if err := m.ReadBuckets(rdNs, out); err != nil {
						errs <- err
						return
					}
					for i := range out {
						if err := sameBucket(seed[i], out[i]); err != nil {
							errs <- fmt.Errorf("round %d, node %d: %v", r, rdNs[i], err)
							return
						}
					}
				}
			}()
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
		})
	}
}
