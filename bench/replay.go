package main

// Per-layer replays: each compute layer's exported functions run in
// isolation at the workloads' shapes, next to a host ceiling measured
// the same way in the same process. "large" is canon_uniform's shape
// (one run's per-PE share = Mem/4 elements, 21 runs, 16 KiB blocks),
// "small" is canon_smallblock's (1024 elements, 49 runs, 400 B blocks).
// Every number is the median of at least replayIters timed iterations.

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"demsort/internal/blockio"
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
	"demsort/internal/cluster/tcp"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/mselect"
	"demsort/internal/psort"
	"demsort/internal/sortbench"
	"demsort/internal/vtime"
	"demsort/internal/xmerge"
)

const (
	replayIters  = 5
	replayBudget = 200 * time.Millisecond // keep iterating a fast replay this long

	largeChunk, largeRuns, largeBlock = 12_500, 21, 16384
	smallChunk, smallRuns, smallBlock = 1024, 49, 400

	// bulkBytes sizes the bandwidth replays: well past this host's
	// last-level cache, so memmove and the codecs are compared at DRAM
	// speed, and file replays at the canon_uniform per-rank tile size.
	bulkBytes = 64 << 20
	fileBytes = 25_000_000
)

// ratio puts a replayed layer number next to its host ceiling.
type ratio struct {
	Metric   string  `json:"metric"`
	Ceiling  string  `json:"ceiling"`
	Achieved float64 `json:"achieved_over_ceiling"`
}

// timeMedian runs fn at least replayIters times and for replayBudget,
// and returns the median seconds fn reported. fn times its own measured
// region, so per-iteration set-up stays outside.
func timeMedian(fn func() time.Duration) float64 {
	var secs []float64
	for start := time.Now(); len(secs) < replayIters || time.Since(start) < replayBudget; {
		secs = append(secs, fn().Seconds())
	}
	return median(secs)
}

func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

var rec100 = elem.Rec100Codec{}

// replayAll runs every replay and returns the metrics plus the
// achieved/ceiling table. dataDir hosts the file replays.
func replayAll(dataDir string, seed uint64) (map[string]float64, []ratio, error) {
	m := map[string]float64{}
	replayElem(m, seed)
	replayPsort(m, seed)
	replayMerge(m, seed)
	replaySortbench(m, seed)
	if err := replayFiles(m, dataDir); err != nil {
		return nil, nil, err
	}
	if err := replayLoopback(m); err != nil {
		return nil, nil, err
	}
	if err := replayFleet(m, seed); err != nil {
		return nil, nil, err
	}
	ceilings := []struct {
		metric, ceiling string
		latency         bool // lower is better: report ceiling/achieved
	}{
		{"elem.encode_mb_s", "host.memmove_mb_s", false},
		{"elem.decode_mb_s", "host.memmove_mb_s", false},
		{"sortbench.gen_mb_s", "host.memmove_mb_s", false},
		{"sortbench.valsort_mb_s", "host.memmove_mb_s", false},
		{"blockio.file_write_mb_s", "host.file_write_mb_s", false},
		{"blockio.file_read_mb_s", "host.file_read_mb_s", false},
		{"blockio.file_small_write_mb_s", "host.file_write_mb_s", false},
		{"blockio.file_small_read_mb_s", "host.file_read_mb_s", false},
		{"tcp.a2a_mb_s", "host.loopback_mb_s", false},
		{"tcp.sendrecv_rtt_us", "host.loopback_rtt_us", true},
		{"tcp.barrier_us", "host.loopback_rtt_us", true},
	}
	var ratios []ratio
	for _, c := range ceilings {
		r := m[c.metric] / m[c.ceiling]
		if c.latency {
			r = 1 / r
		}
		ratios = append(ratios, ratio{Metric: c.metric, Ceiling: c.ceiling, Achieved: r})
	}
	return m, ratios, nil
}

func mbPerS(bytes int, sec float64) float64 { return float64(bytes) / 1e6 / sec }

// replayElem times the bulk codecs next to a plain memmove of the same
// bytes on the same buffers. Memory bandwidth on a shared host swings by
// a factor of two within a minute, so the ceiling is taken before and
// after the codecs and the better of the two is kept.
func replayElem(m map[string]float64, seed uint64) {
	n := bulkBytes / recBytes
	recs := sortbench.Generate(seed, 0, int64(n))
	raw, raw2 := make([]byte, n*recBytes), make([]byte, n*recBytes)
	memmove := func() float64 {
		return mbPerS(len(raw), timeMedian(func() time.Duration {
			return timed(func() { copy(raw2, raw) })
		}))
	}
	copy(raw2, raw) // fault the pages in before timing
	before := memmove()
	m["elem.encode_mb_s"] = mbPerS(len(raw), timeMedian(func() time.Duration {
		return timed(func() { elem.EncodeInto[elem.Rec100](rec100, raw, recs) })
	}))
	m["elem.decode_mb_s"] = mbPerS(len(raw), timeMedian(func() time.Duration {
		return timed(func() { elem.DecodeInto[elem.Rec100](rec100, recs, raw) })
	}))
	m["host.memmove_mb_s"] = max(before, memmove())
	keys := make([]uint64, n)
	m["elem.keys_melem_s"] = float64(n) / 1e6 / timeMedian(func() time.Duration {
		return timed(func() { elem.KeysInto[elem.Rec100](rec100, keys, recs) })
	})
}

func replayPsort(m map[string]float64, seed uint64) {
	run := func(n, workers int) float64 {
		in := sortbench.Generate(seed, 0, int64(n))
		buf := make([]elem.Rec100, n)
		return float64(n) / 1e6 / timeMedian(func() time.Duration {
			copy(buf, in)
			return timed(func() { psort.Sort[elem.Rec100](rec100, buf, workers) })
		})
	}
	m["psort.large_melem_s"] = run(largeChunk, psort.DefaultWorkers())
	m["psort.small_melem_s"] = run(smallChunk, psort.DefaultWorkers())
	m["psort.large_w1_melem_s"] = run(largeChunk, 1)
}

// sortedSeqs cuts n generated records into runs sorted sequences.
func sortedSeqs(seed uint64, n, runs int) [][]elem.Rec100 {
	recs := sortbench.Generate(seed, 0, int64(n))
	seqs := make([][]elem.Rec100, runs)
	for i := range seqs {
		seqs[i] = recs[i*n/runs : (i+1)*n/runs]
		slices.SortFunc(seqs[i], func(a, b elem.Rec100) int { return bytes.Compare(a[:10], b[:10]) })
	}
	return seqs
}

func replayMerge(m map[string]float64, seed uint64) {
	// One memory-load of elements (4 chunks) split into R sorted runs:
	// the final merge's shape, and what mselect partitions in memory.
	for _, c := range []struct {
		name    string
		n, runs int
	}{{"21", 4 * largeChunk, largeRuns}, {"49", 4 * smallChunk, smallRuns}} {
		seqs := sortedSeqs(seed, c.n, c.runs)
		dst := make([]elem.Rec100, 0, c.n)
		m["xmerge.merge"+c.name+"_melem_s"] = float64(c.n) / 1e6 / timeMedian(func() time.Duration {
			return timed(func() { dst = xmerge.AppendMerge[elem.Rec100](rec100, dst[:0], seqs) })
		})
		acc := mselect.SliceAccessor[elem.Rec100](seqs)
		m["mselect.select"+c.name+"_us"] = 1e6 * timeMedian(func() time.Duration {
			return timed(func() { mselect.Select[elem.Rec100](rec100, acc, int64(c.n/2)) })
		})
	}
}

func replaySortbench(m map[string]float64, seed uint64) {
	const n = 200_000
	m["sortbench.gen_mb_s"] = mbPerS(n*recBytes, timeMedian(func() time.Duration {
		return timed(func() { io.Copy(io.Discard, sortbench.NewReader(seed, 0, n)) })
	}))
	raw, _ := io.ReadAll(sortbench.NewReader(seed, 0, n))
	m["sortbench.valsort_mb_s"] = mbPerS(len(raw), timeMedian(func() time.Duration {
		return timed(func() { sortbench.SummarizeReader(bytes.NewReader(raw)) })
	}))
}

// replayFiles times the file-backed block store through Volume against
// plain os.File writes and reads of the same bytes in the same
// directory (page cache, no fsync — the regime the workloads run in).
func replayFiles(m map[string]float64, dataDir string) error {
	dir, err := os.MkdirTemp(dataDir, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	payload := make([]byte, largeBlock)
	rand.New(rand.NewSource(1)).Read(payload)

	volume := func(name string, block, total int) error {
		store, err := blockio.FileStoreFactory(filepath.Join(dir, name), block)(0)
		if err != nil {
			return err
		}
		defer store.Close()
		vol := blockio.NewVolume(store, block, 0, vtime.Default(), vtime.NewClock())
		ids := make([]blockio.BlockID, total/block)
		for i := range ids {
			ids[i] = vol.Alloc()
		}
		buf := make([]byte, block)
		m["blockio."+name+"write_mb_s"] = mbPerS(len(ids)*block, timeMedian(func() time.Duration {
			return timed(func() {
				for _, id := range ids {
					vol.WriteAsync(id, payload[:block])
				}
			})
		}))
		m["blockio."+name+"read_mb_s"] = mbPerS(len(ids)*block, timeMedian(func() time.Duration {
			return timed(func() {
				for _, id := range ids {
					vol.ReadWait(id, buf)
				}
			})
		}))
		return nil
	}
	if err := volume("file_", largeBlock, fileBytes); err != nil {
		return err
	}
	if err := volume("file_small_", smallBlock, fileBytes/5); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(dir, "plain"))
	if err != nil {
		return err
	}
	defer f.Close()
	blocks := fileBytes / largeBlock
	var ioErr error
	m["host.file_write_mb_s"] = mbPerS(blocks*largeBlock, timeMedian(func() time.Duration {
		return timed(func() {
			for i := 0; i < blocks; i++ {
				if _, err := f.WriteAt(payload, int64(i)*largeBlock); err != nil {
					ioErr = err
				}
			}
		})
	}))
	buf := make([]byte, largeBlock)
	m["host.file_read_mb_s"] = mbPerS(blocks*largeBlock, timeMedian(func() time.Duration {
		return timed(func() {
			for i := 0; i < blocks; i++ {
				if _, err := f.ReadAt(buf, int64(i)*largeBlock); err != nil {
					ioErr = err
				}
			}
		})
	}))
	return ioErr
}

// replayLoopback measures a raw net.Conn pair over loopback: one-way
// bulk bandwidth and a 1-byte ping-pong.
func replayLoopback(m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer a.Close()
	b := <-accepted
	if b == nil {
		return fmt.Errorf("loopback accept failed")
	}
	defer b.Close()

	// Nothing here may block forever: a failed write or read surfaces
	// as a deadline error instead.
	deadline := time.Now().Add(30 * time.Second)
	a.SetDeadline(deadline)
	b.SetDeadline(deadline)

	// The echo side reads a request of the announced size and answers
	// one byte, so the bulk figure includes one (small) return trip.
	const bulk = largeChunk * recBytes // what one rank moves in one in-memory all-to-all
	var wg sync.WaitGroup
	wg.Add(1)
	sizes := make(chan int)
	go func() {
		defer wg.Done()
		buf := make([]byte, bulk)
		for n := range sizes {
			if _, err := io.ReadFull(b, buf[:n]); err == nil {
				b.Write(buf[:1])
			}
		}
	}()
	defer wg.Wait()
	defer close(sizes)
	var ioErr error
	roundTrip := func(n int) func() time.Duration {
		out, ack := make([]byte, n), make([]byte, 1)
		return func() time.Duration {
			return timed(func() {
				sizes <- n
				if _, err := a.Write(out); err != nil {
					ioErr = err
				}
				if _, err := io.ReadFull(a, ack); err != nil {
					ioErr = err
				}
			})
		}
	}
	m["host.loopback_mb_s"] = mbPerS(bulk, timeMedian(roundTrip(bulk)))
	m["host.loopback_rtt_us"] = 1e6 * timeMedian(roundTrip(1))
	return ioErr
}

// replayFleet hosts four tcp.Machines in this process (the full wire
// protocol over loopback sockets) and times the transport's collectives
// and dselect.Cuts over them. Rank 0's timings are reported; a barrier
// separates iterations so ranks start each one together.
func replayFleet(m map[string]float64, seed uint64) error {
	peers, err := tcp.ReservePorts(fleetP)
	if err != nil {
		return err
	}
	local := func(rank, n int) []elem.Rec100 {
		recs := sortbench.Generate(seed, int64(rank*n), int64(n))
		slices.SortFunc(recs, func(a, b elem.Rec100) int { return bytes.Compare(a[:10], b[:10]) })
		return recs
	}
	// measure runs fn on every rank iters times; rank 0 keeps the median.
	measure := func(n *cluster.Node, iters int, fn func()) float64 {
		secs := make([]float64, iters)
		for i := range secs {
			n.Barrier()
			secs[i] = timed(fn).Seconds()
		}
		return median(secs)
	}
	program := func(n *cluster.Node) error {
		out := map[string]float64{}
		const barriers = 200
		out["tcp.barrier_us"] = 1e6 * measure(n, replayIters, func() {
			for i := 0; i < barriers; i++ {
				n.Barrier()
			}
		}) / barriers

		const pings = 200
		out["tcp.sendrecv_rtt_us"] = 1e6 * measure(n, replayIters, func() {
			for i := 0; i < pings; i++ {
				switch n.Rank {
				case 0:
					n.Send(1, 1, []byte{1})
					bufpool.Put(n.Recv(1, 1))
				case 1:
					bufpool.Put(n.Recv(0, 1))
					n.Send(0, 1, []byte{1})
				}
			}
		}) / pings

		const perRank = largeChunk * recBytes
		out["tcp.a2a_mb_s"] = perRank / 1e6 / measure(n, 2*replayIters, func() {
			send := make([][]byte, n.P)
			for j := range send {
				send[j] = bufpool.Get(perRank / n.P)
			}
			cluster.RecycleRecv(n.AllToAllv(send))
		})

		for _, c := range []struct {
			name  string
			chunk int
		}{{"large", largeChunk}, {"small", smallChunk}} {
			mine := local(n.Rank, c.chunk)
			ranks := make([]int64, n.P-1)
			for j := range ranks {
				ranks[j] = int64((j + 1) * c.chunk)
			}
			out["dselect.cuts_"+c.name+"_ms"] = 1e3 * measure(n, 2*replayIters, func() {
				dselect.Cuts[elem.Rec100](rec100, n, mine, ranks)
			})
		}
		if n.Rank == 0 {
			for k, v := range out {
				m[k] = v
			}
		}
		return nil
	}

	errs := make([]error, fleetP)
	var wg sync.WaitGroup
	for rank := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tm, err := tcp.New(tcp.Config{Rank: rank, Peers: peers, BlockBytes: largeBlock, MemElems: 4 * largeChunk, JobID: "demsort-bench-replay"})
			if err != nil {
				errs[rank] = err
				return
			}
			defer tm.Close()
			errs[rank] = tm.Run(program)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("tcp replay fleet: %w", err)
		}
	}
	return nil
}
