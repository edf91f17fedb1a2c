package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"forkoram"
)

// client is one closed-loop caller. It owns a disjoint address set and
// keeps a shadow copy of it: every read must return exactly the last
// acknowledged write.
type client struct {
	id     int
	gen    *opGen
	shadow map[uint64][]byte // nil value: state unknown after a failed write
	cur    call
	ops    []forkoram.BatchOp
}

// sample is one acknowledged call: when its reply came (ns since the
// phase start), how long it took (ns), and its ops.
type sample struct {
	at, lat int64
	ops     uint32
	write   bool
}

// tally is what one client observed during a phase.
type tally struct {
	calls, failed, mismatches uint64
	samples                   []sample // acknowledged calls
	firstErr                  error
}

func (t *tally) add(o *tally) {
	t.calls += o.calls
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.samples = append(t.samples, o.samples...)
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// count returns the acknowledged write (or read) calls and their ops.
func (t *tally) count(write bool) (calls, ops uint64) {
	for _, s := range t.samples {
		if s.write == write {
			calls++
			ops += uint64(s.ops)
		}
	}
	return calls, ops
}

// ops returns the acknowledged ops of every call.
func (t *tally) ops() uint64 {
	var n uint64
	for _, s := range t.samples {
		n += uint64(s.ops)
	}
	return n
}

func newClients(w *workload, seed uint64) []*client {
	cs := make([]*client, clients)
	for i := range cs {
		g := newOpGen(w, seed, i)
		c := &client{id: i, gen: g, shadow: make(map[uint64][]byte, len(g.addrs))}
		for j, data := range prefill(w, seed, i, g.addrs) {
			c.shadow[g.addrs[j]] = data
		}
		cs[i] = c
	}
	return cs
}

// load writes every owned address its prefill payload.
func (c *client) load(ctx context.Context, front frontDoor) error {
	const chunk = 64
	addrs := c.gen.addrs
	for i := 0; i < len(addrs); i += chunk {
		c.ops = c.ops[:0]
		for _, a := range addrs[i:min(i+chunk, len(addrs))] {
			c.ops = append(c.ops, forkoram.BatchOp{Addr: a, Write: true, Data: c.shadow[a]})
		}
		if _, err := front.Batch(ctx, c.ops); err != nil {
			return fmt.Errorf("client %d prefill: %w", c.id, err)
		}
	}
	return nil
}

// verify reads every owned address back and counts those that differ
// from the shadow copy.
func (c *client) verify(ctx context.Context, front frontDoor) (mismatches uint64, err error) {
	const chunk = 32
	addrs := c.gen.addrs
	for i := 0; i < len(addrs); i += chunk {
		c.ops = c.ops[:0]
		for _, a := range addrs[i:min(i+chunk, len(addrs))] {
			c.ops = append(c.ops, forkoram.BatchOp{Addr: a})
		}
		got, err := front.Batch(ctx, c.ops)
		if err != nil {
			return mismatches, fmt.Errorf("client %d read-back: %w", c.id, err)
		}
		for j, op := range c.ops {
			if want := c.shadow[op.Addr]; want != nil && !bytes.Equal(got[j], want) {
				mismatches++
			}
		}
	}
	return mismatches, nil
}

// run issues calls until deadline, waiting for each reply.
func (c *client) run(ctx context.Context, front frontDoor, start, deadline time.Time, tr *tracer, t *tally) {
	for time.Now().Before(deadline) {
		c.gen.next(&c.cur)
		cl := &c.cur
		t0 := time.Now()
		var err error
		var got [][]byte
		switch {
		case len(cl.addrs) > 1:
			c.ops = c.ops[:0]
			for i, a := range cl.addrs {
				op := forkoram.BatchOp{Addr: a, Write: cl.write}
				if cl.write {
					op.Data = cl.data[i]
				}
				c.ops = append(c.ops, op)
			}
			got, err = front.Batch(ctx, c.ops)
		case cl.write:
			err = front.Write(ctx, cl.addrs[0], cl.data[0])
		default:
			var v []byte
			v, err = front.Read(ctx, cl.addrs[0])
			got = [][]byte{v}
		}
		t1 := time.Now()
		if tr.on.Load() {
			tr.record(spanCall, uint8(c.id), len(cl.addrs), t0, t1)
		}
		t.calls++
		if err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = err
			}
			if cl.write {
				for _, a := range cl.addrs {
					c.shadow[a] = nil // may or may not have been applied
				}
			}
			continue
		}
		t.samples = append(t.samples, sample{at: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), ops: uint32(len(cl.addrs)), write: cl.write})
		if cl.write {
			for i, a := range cl.addrs {
				c.shadow[a] = append(c.shadow[a][:0], cl.data[i]...)
			}
			continue
		}
		for i, a := range cl.addrs {
			if want := c.shadow[a]; want != nil && !bytes.Equal(got[i], want) {
				t.mismatches++
			}
		}
	}
}

// phase is one timed stretch of closed-loop traffic from every client.
type phase struct {
	tally
	wall time.Duration
}

// runPhase drives every client for d and returns what they saw. The
// wall time runs from the common start until the last reply.
func runPhase(ctx context.Context, front frontDoor, cs []*client, d time.Duration, tr *tracer) phase {
	tallies := make([]tally, len(cs))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i, c := range cs {
		wg.Add(1)
		go func(c *client, t *tally) {
			defer wg.Done()
			c.run(ctx, front, start, deadline, tr, t)
		}(c, &tallies[i])
	}
	wg.Wait()
	p := phase{wall: time.Since(start)}
	for i := range tallies {
		p.add(&tallies[i])
	}
	return p
}
