package core

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"testing"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/elem"
	"demsort/internal/job"
)

// storeCalls is what one rank's store was asked to do in one phase: the
// calls and the blocks they moved, each way.
type storeCalls struct{ reads, readBlocks, writes, writeBlocks int64 }

// countedStore counts a rank's store calls per phase, its node's phase
// at the call. Its Sync checks that every block write the volume has
// accounted so far has reached the store.
type countedStore struct {
	*blockio.FileStore
	node    func() *cluster.Node
	mu      sync.Mutex
	calls   map[string]*storeCalls
	written int64
	synced  int      // Syncs
	syncs   []string // Syncs that found accounted writes missing
}

func (s *countedStore) count(write bool, blocks int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ph := s.node().Phase()
	c := s.calls[ph]
	if c == nil {
		c = &storeCalls{}
		s.calls[ph] = c
	}
	if write {
		c.writes++
		c.writeBlocks += int64(blocks)
		s.written += int64(blocks)
	} else {
		c.reads++
		c.readBlocks += int64(blocks)
	}
}

func (s *countedStore) ReadAt(id blockio.BlockID, dst []byte) error {
	s.count(false, 1)
	return s.FileStore.ReadAt(id, dst)
}

func (s *countedStore) WriteAt(id blockio.BlockID, src []byte) error {
	s.count(true, 1)
	return s.FileStore.WriteAt(id, src)
}

func (s *countedStore) ReadRange(first blockio.BlockID, lens []int, buf []byte) error {
	s.count(false, len(lens))
	return s.FileStore.ReadRange(first, lens, buf)
}

func (s *countedStore) WriteRange(first blockio.BlockID, lens []int, buf []byte) error {
	s.count(true, len(lens))
	return s.FileStore.WriteRange(first, lens, buf)
}

func (s *countedStore) Sync() error {
	names, stats := s.node().PhaseStats()
	var accounted int64
	for _, ph := range names {
		accounted += stats[ph].BlocksWritten
	}
	s.mu.Lock()
	if s.synced++; accounted != s.written {
		s.syncs = append(s.syncs, fmt.Sprintf("in %s: %d block writes accounted, %d on the store", s.node().Phase(), accounted, s.written))
	}
	s.mu.Unlock()
	return s.FileStore.Sync()
}

// blockAtATime is a countedStore without its stretch calls: the volume
// moves one block per store call.
type blockAtATime struct{ s *countedStore }

func (b blockAtATime) ReadAt(id blockio.BlockID, dst []byte) error  { return b.s.ReadAt(id, dst) }
func (b blockAtATime) WriteAt(id blockio.BlockID, src []byte) error { return b.s.WriteAt(id, src) }
func (b blockAtATime) Close() error                                 { return b.s.Close() }
func (b blockAtATime) Sync() error                                  { return b.s.Sync() }
func (b blockAtATime) SetBlockLens(lens map[blockio.BlockID]int)    { b.s.SetBlockLens(lens) }

// nodesOf hosts a machine's PEs and remembers each rank's node, so its
// store can tell the phase a call comes in.
type nodesOf struct {
	cluster.Machine
	nodes []*cluster.Node
}

func (m *nodesOf) Run(fn func(*cluster.Node) error) error {
	return m.Machine.Run(func(n *cluster.Node) error {
		m.nodes[n.Rank] = n
		return fn(n)
	})
}

// stretchInput is p tiles of runs runs each, rl elements per run and PE.
// With Randomize off PE q's run r is its tile's r-th stretch of rl
// elements: the keys (i + shift_r + delta)·runs + r for i in
// [q·rl, (q+1)·rl), shuffled, where shift_0 = delta, shift_1 = -delta
// and every other shift is 0. All keys differ, and a key's global rank
// is i·runs + r but for the shifts, so at delta 0 the splitters fall on
// every run's segment boundaries and the exchange moves nothing. At
// delta > 0 they cut run 0 delta elements early and run 1 delta late:
// PE q-1 sends PE q the last delta elements of its run-0 segment, and PE
// q sends PE q-1 the first delta of its run-1 segment.
func stretchInput[T any](mk func(key uint64) T, p, runs, rl, delta int) [][]T {
	rng := rand.New(rand.NewPCG(5, 7))
	in := make([][]T, p)
	for q := range in {
		for r := range runs {
			shift := map[int]int{0: delta, 1: -delta}[r]
			run := make([]T, 0, rl)
			for i := q * rl; i < (q+1)*rl; i++ {
				run = append(run, mk(uint64((i+shift+delta)*runs+r)))
			}
			rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
			in[q] = append(in[q], run...)
		}
	}
	return in
}

// TestStoreCallsFollowStretches pins the split between store calls and
// block accounting on a P = 3 sim sort on file stores: every phase
// accounts the blocks a block-at-a-time store sees (BlocksRead,
// BlocksWritten, bytes, IOTime, the clock — every PhaseStats field) and
// the output is the same, while a store that takes stretches is called
// once per stretch of consecutive blocks: run formation writes each run
// in ⌈BlocksPerRun/WriteStage⌉ calls, the final merge reads each file in
// ⌈blocks/ReadWindow⌉ calls per stretch, and the selection's probes and
// the exchange's pieces stay one block per call. Rows: KV16 blocks, a
// padded block (Rec100, 24 bytes of every 1024 unused), trimmed extents
// (the exchange moves a few elements of two runs across each PE
// boundary), and a durable job without a sink, whose final merge writes
// through a stage and whose checkpoints must find every accounted write
// on the store.
func TestStoreCallsFollowStretches(t *testing.T) {
	const p, mem, block, runs = 3, 7000, 1024, 3
	kv := func(k uint64) elem.KV16 { return elem.KV16{Key: k, Val: k ^ 0x5555} }
	rec := func(k uint64) (r elem.Rec100) {
		binary.BigEndian.PutUint64(r[:], k)
		r[50] = byte(k)
		return r
	}
	t.Run("kv16", func(t *testing.T) { checkStretches(t, kvc, kv, p, mem, block, runs, 0, false) })
	t.Run("padded_rec100", func(t *testing.T) { checkStretches(t, elem.Rec100Codec{}, rec, p, mem, block, runs, 0, false) })
	t.Run("trimmed", func(t *testing.T) { checkStretches(t, kvc, kv, p, mem, block, runs, 3, false) })
	t.Run("durable", func(t *testing.T) { checkStretches(t, kvc, kv, p, mem, block, runs, 0, true) })
}

func checkStretches[T any](t *testing.T, c elem.Codec[T], mk func(uint64) T, p int, mem int64, block, runs, delta int, durable bool) {
	pl, err := job.NewPlan(job.Shape{Sorter: job.Canonical, P: p, MemElems: mem, BlockBytes: block, ElemSize: c.Size(), NPerPE: 1, Collected: true})
	if err != nil {
		t.Fatal(err)
	}
	bpr := int64(pl.BlocksPerRun)
	pl, err = job.NewPlan(job.Shape{Sorter: job.Canonical, P: p, MemElems: mem, BlockBytes: block, ElemSize: c.Size(), NPerPE: int64(runs) * pl.RunLocal, Collected: !durable})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Runs != int64(runs) || pl.WriteStage < 2 || pl.ReadWindow < 2 || bpr%int64(pl.WriteStage) == 0 || bpr%int64(pl.ReadWindow) == 0 {
		t.Fatalf("test degenerate: R %d, %d blocks per run, read window %d, write stage %d", pl.Runs, bpr, pl.ReadWindow, pl.WriteStage)
	}
	input := stretchInput(mk, p, runs, int(pl.RunLocal), delta)
	type outcome struct {
		stores []*countedStore
		res    *Result[T]
	}
	sortOn := func(stretches bool) outcome {
		cfg := DefaultConfig(p, mem, block)
		cfg.Randomize, cfg.KeepOutput = false, !durable
		dir := t.TempDir()
		if durable {
			cfg.Checkpoint = CheckpointConfig{Dir: dir, JobID: "stretches"}
		}
		o := outcome{stores: make([]*countedStore, p)}
		m := &nodesOf{nodes: make([]*cluster.Node, p)}
		newStore := func(rank int) (blockio.Store, error) {
			fs, err := blockio.NewFileStore(filepath.Join(dir, fmt.Sprintf("rank-%03d.blocks", rank)), block, durable)
			if err != nil {
				return nil, err
			}
			o.stores[rank] = &countedStore{FileStore: fs, node: func() *cluster.Node { return m.nodes[rank] }, calls: map[string]*storeCalls{}}
			if stretches {
				return o.stores[rank], nil
			}
			return blockAtATime{o.stores[rank]}, nil
		}
		sm, err := sim.New(sim.Config{P: p, BlockBytes: block, MemElems: mem, Model: cfg.Model, NewStore: newStore})
		if err != nil {
			t.Fatal(err)
		}
		defer sm.Close()
		m.Machine, cfg.Machine = sm, m
		if o.res, err = Sort(c, cfg, input); err != nil {
			t.Fatal(err)
		}
		if !durable {
			if err := o.res.Validate(c, input); err != nil {
				t.Fatal(err)
			}
		}
		return o
	}
	blocks, stretched := sortOn(false), sortOn(true)
	ceil := func(a, b int64) int64 { return (a + b - 1) / b }
	for q := range p {
		for _, ph := range blocks.res.PhaseNames {
			if a, b := *blocks.res.PerPE[q][ph], *stretched.res.PerPE[q][ph]; a != b {
				t.Errorf("rank %d %s: block at a time %+v, in stretches %+v", q, ph, a, b)
			}
			bc, sc := blocks.stores[q].calls[ph], stretched.stores[q].calls[ph]
			if bc == nil {
				bc = &storeCalls{}
			}
			if sc == nil {
				sc = &storeCalls{}
			}
			if bc.reads != bc.readBlocks || bc.writes != bc.writeBlocks || sc.readBlocks != bc.readBlocks || sc.writeBlocks != bc.writeBlocks {
				t.Errorf("rank %d %s: block at a time %+v, in stretches %+v: not the same blocks", q, ph, *bc, *sc)
			}
			// What crosses a PE boundary at delta > 0: one block each way
			// per neighbour.
			var sent, recv int64
			if delta > 0 {
				sent = int64(btoi(q < p-1) + btoi(q > 0))
				recv = sent
			}
			var want storeCalls
			switch ph {
			case PhaseRunForm:
				want.writes = int64(runs) * ceil(bpr, int64(pl.WriteStage))
			case PhaseSelection:
				want.reads = bc.readBlocks
			case PhaseExchange:
				want.reads, want.writes = sent, recv
			case PhaseMerge:
				want.reads = int64(runs)*ceil(bpr, int64(pl.ReadWindow)) + recv
				if durable { // no sink, and with nothing exchanged no block is freed: the output's are fresh
					want.writes = ceil(int64(runs)*bpr, int64(pl.WriteStage))
				}
			}
			if got := (storeCalls{reads: sc.reads, writes: sc.writes}); got != want {
				t.Errorf("rank %d %s: %d read and %d write calls, want %d and %d (%+v)", q, ph, sc.reads, sc.writes, want.reads, want.writes, *sc)
			}
		}
		for _, s := range []*countedStore{blocks.stores[q], stretched.stores[q]} {
			if durable && s.synced == 0 {
				t.Errorf("rank %d: the run-formation commit did not sync the store", q)
			}
			for _, msg := range s.syncs {
				t.Errorf("rank %d: a checkpoint synced the store %s", q, msg)
			}
		}
	}
	for q := range p {
		if !durable && fmt.Sprint(blocks.res.Output[q]) != fmt.Sprint(stretched.res.Output[q]) {
			t.Errorf("rank %d: the outputs differ", q)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
