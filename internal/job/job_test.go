package job

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/cluster/sim"
	"demsort/internal/dselect"
	"demsort/internal/elem"
	"demsort/internal/psort"
	"demsort/internal/vtime"
	"demsort/internal/workload"
	"demsort/internal/xmerge"
)

var kvc = elem.KV16Codec{}

func TestRankBounds(t *testing.T) {
	if got, want := RankBounds(10, 4), []int64{0, 2, 5, 7, 10}; !slices.Equal(got, want) {
		t.Errorf("RankBounds(10, 4) = %v, want %v", got, want)
	}
	if got, want := RankBounds(0, 3), []int64{0, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("RankBounds(0, 3) = %v, want %v", got, want)
	}
	b := RankBounds(1<<40+7, 7)
	for i := 1; i < len(b); i++ {
		if d := b[i] - b[i-1]; d != (1<<40+7)/7 && d != (1<<40+7)/7+1 {
			t.Errorf("part %d has %d elements", i-1, d)
		}
	}
}

// TestEncodePartsRoundTrip: each part is its elements, then the count of
// the chunk's elements before it; an empty part is that trailer alone.
func TestEncodePartsRoundTrip(t *testing.T) {
	chunk := make([]elem.KV16, 10)
	for i := range chunk {
		chunk[i] = elem.KV16{Key: uint64(i), Val: uint64(100 + i)}
	}
	cuts := []int64{0, 3, 3, 10} // five parts: two of them empty, one at each end
	send := EncodeParts(kvc, dselect.Sorted[elem.KV16]{Vals: chunk}, cuts)
	if len(send) != len(cuts)+1 {
		t.Fatalf("%d parts for %d cuts", len(send), len(cuts))
	}
	var back []elem.KV16
	for q, b := range send {
		lo, hi := int64(0), int64(len(chunk))
		if q > 0 {
			lo = cuts[q-1]
		}
		if q < len(cuts) {
			hi = cuts[q]
		}
		body := len(b) - 8
		if int64(body) != (hi-lo)*16 {
			t.Fatalf("part %d: %d bytes, want %d elements and the trailer", q, len(b), hi-lo)
		}
		if before := int64(binary.LittleEndian.Uint64(b[body:])); before != lo {
			t.Errorf("part %d: trailer says %d elements before it, want %d", q, before, lo)
		}
		back = elem.AppendDecode(kvc, back, b, body/16)
	}
	cluster.RecycleRecv(send)
	if !slices.Equal(back, chunk) {
		t.Errorf("parts decode to %v", back)
	}
}

// tiles builds per-PE inputs of the given sizes with unique Vals, keys
// drawn from keyRange values (1 = all equal).
func tiles(sizes []int, keyRange uint64, seed uint64) [][]elem.KV16 {
	rng := rand.New(rand.NewPCG(seed, 1))
	in := make([][]elem.KV16, len(sizes))
	val := uint64(0)
	for pe, sz := range sizes {
		in[pe] = make([]elem.KV16, sz)
		for i := range in[pe] {
			in[pe][i] = elem.KV16{Key: rng.Uint64N(keyRange), Val: val}
			val++
		}
	}
	return in
}

func byKeyVal(a, b elem.KV16) int {
	return cmp.Or(cmp.Compare(a.Key, b.Key), cmp.Compare(a.Val, b.Val))
}

// samePermutation reports whether a and b hold the same elements.
func samePermutation(a, b []elem.KV16) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.SortFunc(a, byKeyVal)
	slices.SortFunc(b, byKeyVal)
	return slices.Equal(a, b)
}

// onSim opens a job over input on a fresh sim machine and runs fn on
// every PE. The job is planned as the baseline's — the quarter-budget run
// geometry with no sorter's refusals — since these tests charge the
// budget only for the shared phases they drive.
func onSim[T any](t *testing.T, c elem.Codec[T], cfg Common, input [][]T, fn func(j *Job[T], n *cluster.Node) error) {
	t.Helper()
	j, err := Open(c, &cfg, input, Baseline, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Start(); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Run(func(n *cluster.Node) error { return fn(j, n) }); err != nil {
		t.Fatal(err)
	}
}

// TestStartChecksAdoptedMachine: the geometry comes from the config, the
// volume and the budget from the machine, so Start refuses a machine
// built with another P, block size or memory budget.
func TestStartChecksAdoptedMachine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		machine sim.Config
		wantErr string
	}{
		{"same", sim.Config{P: 2, BlockBytes: 256, MemElems: 1024}, ""},
		{"other P", sim.Config{P: 3, BlockBytes: 256, MemElems: 1024}, "machine has 3 PEs"},
		{"other block size", sim.Config{P: 2, BlockBytes: 512, MemElems: 1024}, "512-byte blocks"},
		{"other budget", sim.Config{P: 2, BlockBytes: 256, MemElems: 4096}, "budget of 4096"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := sim.New(tc.machine)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			cfg := Defaults(2, 1024, 256)
			cfg.Machine = m
			j, err := Open(kvc, &cfg, make([][]elem.KV16, 2), Canonical, 0)
			if err != nil {
				t.Fatal(err)
			}
			err = j.Start()
			if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
				t.Fatalf("Start on a machine built as %+v: %v, want %q", tc.machine, err, tc.wantErr)
			}
		})
	}
}

// TestGatherEqualsEncodePartsOfThePermutedChunk: EncodeParts of a chunk
// read through psort.Order's permutation gathers into the send vectors
// the bytes it encodes of the permuted chunk itself, part for part (the
// part's elements, then the count of elements before it), and leaves the
// chunk as it was — for KV16 and Rec100 records that tie on
// their 8-byte key prefix (assigned through views of the pooled
// buffers) and a closure-only codec (encoded element by element).
func TestGatherEqualsEncodePartsOfThePermutedChunk(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 23))
	kv := func() elem.KV16 { return elem.KV16{Key: rng.Uint64N(300), Val: rng.Uint64()} }
	t.Run("kv16", func(t *testing.T) { checkGather(t, rng, kvc, kv) })
	t.Run("closure_kv16", func(t *testing.T) { checkGather[elem.KV16](t, rng, closureKV16{}, kv) })
	t.Run("rec100", func(t *testing.T) {
		checkGather(t, rng, elem.Rec100Codec{}, func() (r elem.Rec100) {
			for i := range r {
				r[i] = byte(rng.Uint32())
			}
			r[0], r[7] = 0, byte(rng.IntN(3))
			return r
		})
	})
}

func checkGather[T any](t *testing.T, rng *rand.Rand, c elem.Codec[T], gen func() T) {
	for _, n := range []int{0, 1, 100, 1000} {
		vals := make([]T, n)
		for i := range vals {
			vals[i] = gen()
		}
		before := elem.EncodeSlice(c, vals)
		perm := make([]int32, n)
		psort.Order(c, vals, perm, 2)
		permuted := make([]T, n)
		for i, p := range perm {
			permuted[i] = vals[p]
		}
		cuts := []int64{0, int64(n / 3), int64(n / 3), int64(n)} // empty parts at either end and inside
		got := EncodeParts(c, dselect.Sorted[T]{Vals: vals, Perm: perm}, cuts)
		encoded := EncodeParts(c, dselect.Sorted[T]{Vals: permuted}, cuts)
		for q, lo := range append([]int64{0}, cuts...) {
			hi := int64(n)
			if q < len(cuts) {
				hi = cuts[q]
			}
			want := binary.LittleEndian.AppendUint64(elem.EncodeSlice(c, permuted[lo:hi]), uint64(lo))
			if !bytes.Equal(got[q], want) || !bytes.Equal(encoded[q], want) {
				t.Fatalf("n=%d part %d: the gather or the permuted chunk's encoding is not the part's elements and then %d", n, q, lo)
			}
		}
		if !bytes.Equal(elem.EncodeSlice(c, vals), before) {
			t.Fatalf("n=%d: the gather moved the chunk", n)
		}
	}
}

// TestFormRuns drives the shared phase 1 on the sim backend with the
// exact run sort: per run, the segments handed to store — concatenated in rank order — are
// sorted and are a permutation of the blocks that run was formed from,
// each segment is exactly its rank's RankBounds share, and the budget
// holds nothing but the documented 2·len(seg) during store, which store
// releases, and is back at its entry level afterwards. It covers both
// paths (R = 1 sorts each block as it is read) for a POD codec, read in
// place, and for a codec the run buffer is decoded for.
func TestFormRuns(t *testing.T) {
	const bElem, mem = 16, 1024 // RunLocal = 256 elements = 16 blocks
	for _, tc := range []struct {
		name     string
		sizes    []int
		keyRange uint64
		codec    elem.Codec[elem.KV16]
	}{
		{"p1", []int{700}, 1 << 40, kvc},
		{"p1_single_run", []int{200}, 1 << 40, kvc},
		{"p3_single_run", []int{200, 0, 256}, 1 << 40, kvc}, // R = 1: blocks sorted as read, then merged
		{"p3_empty_rank", []int{600, 0, 300}, 1 << 40, kvc},
		{"p4_uneven", []int{700, 33, 256, 511}, 1 << 40, kvc},
		{"p4_all_equal", []int{500, 0, 700, 40}, 1, kvc},
		{"p3_few_keys", []int{300, 300, 10}, 3, kvc},
		{"p4_empty_input", []int{0, 0, 0, 0}, 1, kvc},
		// Not POD: elem.View decodes the run buffer, and each block at R = 1.
		{"p3_closure_codec", []int{600, 0, 300}, 1 << 40, closureKV16{}},
		{"p3_closure_codec_single_run", []int{200, 0, 256}, 1 << 40, closureKV16{}},
	} {
		for _, randomize := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s_randomize=%v", tc.name, randomize), func(t *testing.T) {
				p := len(tc.sizes)
				input := tiles(tc.sizes, tc.keyRange, 42)
				cfg := Defaults(p, mem, bElem*16)
				cfg.Randomize = randomize
				type seg struct {
					runLen, segStart int64
					elems            []elem.KV16
				}
				segs := make([][]seg, p) // [rank][run]
				runCount := make([]int, p)
				onSim(t, tc.codec, cfg, input, func(j *Job[elem.KV16], n *cluster.Node) error {
					spans, err := j.Load(n)
					if err != nil {
						return err
					}
					n.SetPhase("run formation")
					entry := n.Mem.Used()
					runCount[n.Rank], err = j.FormRuns(n, spans, 0xABC, func(run int, chunk dselect.Sorted[elem.KV16]) error {
						if run != len(segs[n.Rank]) {
							return fmt.Errorf("rank %d: sortRun called for run %d after %d runs", n.Rank, run, len(segs[n.Rank]))
						}
						if chunk.Perm == nil && chunk.Len() > 0 && slices.Max(tc.sizes) > 256 {
							return fmt.Errorf("rank %d run %d: R > 1 handed sortRun no permutation", n.Rank, run)
						}
						return j.SortExact(n, chunk, func(parts [][]elem.KV16, segStart, runLen int64) error {
							s := xmerge.AppendMerge(tc.codec, nil, parts)
							if used := n.Mem.Used(); used != entry+int64(len(s)) {
								return fmt.Errorf("rank %d run %d: %d elements charged during store, want entry %d + the %d received", n.Rank, run, used, entry, len(s))
							}
							segs[n.Rank] = append(segs[n.Rank], seg{runLen, segStart, s})
							return nil
						})
					})
					if err != nil {
						return err
					}
					if used := n.Mem.Used(); used != entry {
						return fmt.Errorf("rank %d: %d elements charged after FormRuns, %d on entry", n.Rank, used, entry)
					}
					if peak := n.Mem.Peak(); peak > mem {
						return fmt.Errorf("rank %d: peak %d over budget %d", n.Rank, peak, mem)
					}
					return nil
				})

				maxTile := slices.Max(tc.sizes)
				wantRuns := max((maxTile+255)/256, 1)
				var all, got []elem.KV16
				for _, part := range input {
					all = append(all, part...)
				}
				for rank := range segs {
					if runCount[rank] != wantRuns || len(segs[rank]) != wantRuns {
						t.Fatalf("rank %d: %d runs reported, %d stored, want %d", rank, runCount[rank], len(segs[rank]), wantRuns)
					}
				}
				for r := 0; r < wantRuns; r++ {
					var run, formedFrom []elem.KV16
					runLen := segs[0][r].runLen
					bounds := RankBounds(runLen, p)
					for rank := 0; rank < p; rank++ {
						s := segs[rank][r]
						if s.runLen != runLen || s.segStart != bounds[rank] || int64(len(s.elems)) != bounds[rank+1]-bounds[rank] {
							t.Fatalf("run %d rank %d: runLen %d segStart %d len %d, want %d, %d, %d",
								r, rank, s.runLen, s.segStart, len(s.elems), runLen, bounds[rank], bounds[rank+1]-bounds[rank])
						}
						run = append(run, s.elems...)
						tile := input[rank]
						formedFrom = append(formedFrom, tile[min(r*256, len(tile)):min((r+1)*256, len(tile))]...)
					}
					if !elem.IsSorted[elem.KV16](kvc, run) {
						t.Fatalf("run %d is not sorted across the ranks", r)
					}
					if !randomize && !samePermutation(run, formedFrom) {
						t.Fatalf("run %d is not a permutation of its input blocks", r)
					}
					got = append(got, run...)
				}
				if !samePermutation(got, all) {
					t.Fatal("the runs together are not a permutation of the input")
				}
			})
		}
	}
}

// fillRecorder is an in-place Source that records, for each ReadAt, its
// offset, the address its bytes land at and how many sortRun calls of
// its rank had returned by then (*returned, owned by the rank's PE).
type fillRecorder struct {
	*bytes.Reader
	returned *int
	reads    []fillRead
}

type fillRead struct {
	off      int64
	at       uintptr
	returned int
}

func (f *fillRecorder) ReadAt(p []byte, off int64) (int, error) {
	f.reads = append(f.reads, fillRead{off, uintptr(unsafe.Pointer(unsafe.SliceData(p))), *f.returned})
	return f.Reader.ReadAt(p, off)
}

// TestFormRunsFillsAfterSortRun: run formation holds one run buffer. The
// bytes of run r+1 are read only once sortRun(r) has returned (its chunk
// is a view of that buffer), and every run lands in the same buffer:
// each block at its offset within the run, from one base address.
// Randomize is off, so run r is the tile's bytes [r·run, (r+1)·run).
func TestFormRunsFillsAfterSortRun(t *testing.T) {
	const bElem, mem = 16, 1024 // 16 blocks per run: 4096 bytes of KV16
	const runBytes = 16 * bElem * 16
	for _, tc := range []struct {
		name  string
		sizes []int
		codec elem.Codec[elem.KV16]
	}{
		{"p3", []int{700, 300, 520}, kvc},
		{"p3_single_run", []int{200, 0, 256}, kvc},
		{"p3_closure_codec", []int{600, 0, 300}, closureKV16{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := len(tc.sizes)
			input := tiles(tc.sizes, 1<<40, 7)
			returned := make([]int, p)
			recs := make([]*fillRecorder, p)
			cfg := Defaults(p, mem, bElem*16)
			cfg.Randomize = false
			cfg.Source = func(rank int) (io.Reader, int64, error) {
				recs[rank] = &fillRecorder{Reader: bytes.NewReader(elem.EncodeSlice(kvc, input[rank])), returned: &returned[rank]}
				return recs[rank], int64(len(input[rank])), nil
			}
			runs := make([]int, p)
			onSim(t, tc.codec, cfg, nil, func(j *Job[elem.KV16], n *cluster.Node) error {
				in, err := j.Load(n)
				if err != nil {
					return err
				}
				n.SetPhase("run formation")
				runs[n.Rank], err = j.FormRuns(n, in, 0xF111, func(run int, chunk dselect.Sorted[elem.KV16]) error {
					err := j.SortExact(n, chunk, func([][]elem.KV16, int64, int64) error { return nil })
					returned[n.Rank]++
					return err
				})
				return err
			})
			if want := max((slices.Max(tc.sizes)+255)/256, 1); runs[0] != want {
				t.Fatalf("%d runs, want %d", runs[0], want)
			}
			for rank, rec := range recs {
				if got, want := len(rec.reads), (tc.sizes[rank]+bElem-1)/bElem; got != want {
					t.Fatalf("rank %d: %d reads of its tile, want one per block: %d", rank, got, want)
				}
				var base uintptr
				for i, rd := range rec.reads {
					run := int(rd.off / runBytes)
					if rd.returned != run {
						t.Errorf("rank %d: run %d's block at byte %d read after %d sortRun calls returned, want %d", rank, run, rd.off, rd.returned, run)
					}
					if b := rd.at - uintptr(rd.off%runBytes); i == 0 {
						base = b
					} else if b != base {
						t.Errorf("rank %d: run %d's block at byte %d lands in another buffer than run 0's", rank, run, rd.off)
					}
				}
			}
		})
	}
}

// TestInputIssueAndFill: Issue accounts a span's read as a store read of
// its length is accounted — the same handle, counters and device time,
// the same stall on a synchronous volume — and Fill lands the same bytes
// the store read does, from the Source in place or from a staged block,
// without touching the clock. A short read of the Source is an error
// wrapping the cause, not a panic.
func TestInputIssueAndFill(t *testing.T) {
	src := bytes.Repeat([]byte("0123456789"), 100) // 1000 bytes
	newVol := func() *blockio.Volume {
		return blockio.NewVolume(blockio.NewMemStore(), 1024, 0, vtime.Default(), vtime.NewClock())
	}
	sp := blockio.Span{ID: 3, Bytes: 400} // bytes [300, 700) at a 100-byte stride
	for _, sync := range []bool{false, true} {
		for _, staged := range []bool{false, true} {
			ref, v := newVol(), newVol()
			ref.SetSynchronous(sync)
			v.SetSynchronous(sync)
			id := ref.Alloc()
			if err := ref.Store().WriteAt(id, src[300:700]); err != nil { // unaccounted
				t.Fatal(err)
			}
			in := &Input{vol: v, at: bytes.NewReader(src), stride: 100}
			if staged {
				if err := v.Store().WriteAt(sp.ID, src[300:700]); err != nil {
					t.Fatal(err)
				}
				in.at = nil
			}

			want, got := make([]byte, 400), make([]byte, 400)
			hRef := ref.ReadAsync(id, want)
			h := in.Issue(sp)
			if h != hRef || v.Clock().Now() != ref.Clock().Now() || *v.Clock().Cur() != *ref.Clock().Cur() {
				t.Fatalf("sync=%v staged=%v: handle %v clock %v stats %+v, ReadAsync: %v %v %+v",
					sync, staged, h, v.Clock().Now(), *v.Clock().Cur(), hRef, ref.Clock().Now(), *ref.Clock().Cur())
			}
			if stalled := v.Clock().Now() == float64(h); stalled != sync {
				t.Fatalf("sync=%v staged=%v: returned at %v, completion %v", sync, staged, v.Clock().Now(), float64(h))
			}
			before := *v.Clock().Cur()
			if err := in.Fill(sp, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sync=%v staged=%v: Fill read other bytes than the store read", sync, staged)
			}
			if *v.Clock().Cur() != before || v.Clock().Now() != ref.Clock().Now() {
				t.Fatalf("sync=%v staged=%v: Fill moved the clock or the counters", sync, staged)
			}
		}
	}

	v := newVol()
	in := &Input{vol: v, at: bytes.NewReader(src), stride: 100}
	err := in.Fill(blockio.Span{ID: 9, Bytes: 200}, make([]byte, 200))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read: %v, want an error wrapping io.ErrUnexpectedEOF", err)
	}
	if st := v.Clock().Cur(); st.BlocksRead != 0 || v.Clock().Now() != 0 {
		t.Fatalf("a failed read was accounted: %+v", *st)
	}
}

// closureKV16 is KV16 through the Codec interface alone: not POD, so
// elem.View decodes, and not keyed, so sorts and merges compare.
type closureKV16 struct{}

func (closureKV16) Size() int                    { return 16 }
func (closureKV16) Encode(d []byte, v elem.KV16) { kvc.Encode(d, v) }
func (closureKV16) Decode(s []byte) elem.KV16    { return kvc.Decode(s) }
func (closureKV16) Less(a, b elem.KV16) bool     { return a.Key < b.Key }

// TestMergeFiles runs the final merge over run files of the kinds the
// exchange's assemble builds — whole owned blocks a Writer wrote,
// boundary extents trimmed at either end (Off > 0, or a short Len) that
// are not owned, a whole block that is not owned, an empty file — on a
// block size that is not a multiple of the element size. The output is
// the central merge of the files' contents; exactly the owned blocks go
// back to the volume. The closure-only codec takes View's decode path.
func TestMergeFiles(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	t.Run("kv16", func(t *testing.T) {
		checkMergeFiles(t, kvc, func() elem.KV16 { return elem.KV16{Key: rng.Uint64N(40), Val: rng.Uint64()} })
	})
	t.Run("rec100", func(t *testing.T) {
		checkMergeFiles(t, elem.Rec100Codec{}, func() (r elem.Rec100) {
			for i := range r {
				r[i] = byte(rng.Uint32())
			}
			r[0], r[7] = byte(rng.IntN(2)), byte(rng.IntN(3)) // 8-byte key prefixes tie
			return r
		})
	})
	t.Run("closure_kv16", func(t *testing.T) {
		checkMergeFiles[elem.KV16](t, closureKV16{}, func() elem.KV16 { return elem.KV16{Key: rng.Uint64N(40), Val: rng.Uint64()} })
	})
}

func checkMergeFiles[T any](t *testing.T, c elem.Codec[T], gen func() T) {
	const blockBytes = 1000 // 62 KV16 or 10 Rec100 per block, and bytes over
	onSim(t, c, Defaults(1, 1<<14, blockBytes), make([][]T, 1), func(j *Job[T], n *cluster.Node) error {
		var files []File
		var contents [][]T
		owned := map[int64]bool{}
		for _, f := range []struct {
			size int
			trim bool
		}{{500, true}, {0, false}, {130, false}, {325, true}, {25, true}} {
			vs := make([]T, f.size)
			for i := range vs {
				vs[i] = gen()
			}
			slices.SortStableFunc(vs, orderOf(c))
			w := NewWriter(c, n.Vol)
			w.AddSlice(vs)
			written := w.Finish()
			if !f.trim {
				files, contents = append(files, written), append(contents, vs)
				for _, e := range written.Extents {
					owned[int64(e.ID)] = true
				}
				continue
			}
			// Cut 3 elements off the front and 2 off the end, and give
			// away the second block.
			var file File
			last := len(written.Extents) - 1
			for i, e := range written.Extents {
				if i == 0 {
					e.Off, e.Len, e.Own = 3, e.Len-3, false
				}
				if i == last {
					e.Len, e.Own = e.Len-2, false
				}
				if i == 1 {
					e.Own = false
				}
				if e.Own {
					owned[int64(e.ID)] = true
				}
				file.Append(e)
			}
			files, contents = append(files, file), append(contents, vs[3:f.size-2])
		}
		used := n.Vol.Used()
		var got []T
		emitted, err := j.MergeFiles(n, files, func(rank int, b []byte) error {
			got = elem.AppendDecode(c, got, b, len(b)/c.Size())
			return nil
		})
		if err != nil {
			return err
		}
		want := xmerge.AppendMerge(c, nil, contents)
		if emitted != int64(len(want)) || !bytes.Equal(elem.EncodeSlice(c, got), elem.EncodeSlice(c, want)) {
			return fmt.Errorf("MergeFiles emitted %d elements (%d reported), not the central merge of %d", len(got), emitted, len(want))
		}
		// The merge freed exactly the owned blocks: they are what the
		// volume hands out next, before any new block.
		stillUsed := n.Vol.Used()
		freed := map[int64]bool{}
		for range owned {
			freed[int64(n.Vol.Alloc())] = true
		}
		if !maps.Equal(freed, owned) || stillUsed != used-int64(len(owned)) {
			return fmt.Errorf("freed blocks %v (%d of %d still used), want exactly the owned %v", freed, stillUsed, used, owned)
		}
		return nil
	})
}

// orderOf is c's order as a three-way comparison.
func orderOf[T any](c elem.Codec[T]) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case c.Less(a, b):
			return -1
		case c.Less(b, a):
			return 1
		}
		return 0
	}
}

// TestSortExactIsTheExactRunSort pins the run sort core's run formation
// calls over a table of inputs and machine sizes, each chunk handed over
// as FormRuns hands it: read through psort.Order's permutation. On every PE,
// SortExact makes one AllGather (lengths and samples) and three
// AllToAllv (residuals, answers, data) — at P = 1 only the data's — and
// leaves every PE with exactly its RankBounds share of the central
// stable sort of all chunks. The split's working set stays within the
// plan's: the pool, or no more than SplitResidual gathered at an owner.
func TestSortExactIsTheExactRunSort(t *testing.T) {
	const perPE = 1024 // RunLocal at M = 4096
	rec := elem.Rec100Codec{}
	for _, p := range []int{1, 2, 3, 4, 7} {
		sized := func(size func(q int) int) [][]elem.KV16 {
			sizes := make([]int, p)
			for q := range sizes {
				sizes[q] = size(q)
			}
			return tiles(sizes, 1<<40, uint64(p))
		}
		emptyPEs := workload.Generate(workload.Uniform, p, perPE, 3)
		for q := 0; q < p; q += 2 {
			emptyPEs[q] = nil
		}
		for name, chunks := range map[string][][]elem.KV16{
			"uniform":        workload.Generate(workload.Uniform, p, perPE, 3),
			"all_equal":      workload.Generate(workload.AllEqual, p, perPE, 3),
			"hot_key":        workload.Generate(workload.HotKey, p, perPE, 3),
			"disjoint_bands": workload.Generate(workload.GloballySorted, p, perPE, 3),
			"reversed_bands": workload.Generate(workload.ReversedBands, p, perPE, 3),
			"empty_pes":      emptyPEs,
			"one_pe_has_all": sized(func(q int) int { return perPE * ((q + 1) / p) }), // PE p−1
			"shorter_than_s": sized(func(q int) int { return 7 * q % 31 }),
			"every_elem_s":   sized(func(q int) int { return 1 + q%2 }), // ⌊√(2·ln)⌋ = ln
			"uneven":         sized(func(q int) int { return (389*q + 17) % (perPE + 1) }),
		} {
			t.Run(fmt.Sprintf("%s_p%d", name, p), func(t *testing.T) { checkSortExact(t, kvc, 256, chunks) })
		}
		// Records whose 8-byte keys collide: the comparator decides.
		rng := rand.New(rand.NewPCG(uint64(p), 2))
		recs := make([][]elem.Rec100, p)
		for q := range recs {
			recs[q] = make([]elem.Rec100, (perPE-4)*(q+1)/p)
			for i := range recs[q] {
				r := &recs[q][i]
				r[7], r[8], r[9] = byte(rng.IntN(3)), byte(rng.IntN(4)), byte(rng.IntN(4))
				binary.LittleEndian.PutUint64(r[10:], rng.Uint64())
			}
		}
		t.Run(fmt.Sprintf("rec100_shared_prefixes_p%d", p), func(t *testing.T) { checkSortExact(t, rec, 1000, recs) })
	}
}

// checkSortExact runs SortExact on the sim backend, PE q holding chunks[q]
// sorted, at M = 4096 and the given block size; see
// TestSortExactIsTheExactRunSort.
func checkSortExact[T any](t *testing.T, c elem.Codec[T], blockBytes int, chunks [][]T) {
	p := len(chunks)
	byOrder := orderOf(c)
	// The oracle: chunks concatenated in rank order and stably sorted
	// order ties by (PE, position), the total order the split cuts in.
	var all []T
	var pool int64 // the split's pooled samples
	for _, chunk := range chunks {
		all = append(all, chunk...)
		pool += min(dselect.SplitSamples(int64(len(chunk))), int64(len(chunk)))
	}
	slices.SortStableFunc(all, byOrder)
	bounds := RankBounds(int64(len(all)), p)

	calls := make([][]string, p)
	onSim(t, c, Defaults(p, 4096, blockBytes), make([][]T, p), func(j *Job[T], n *cluster.Node) error {
		n.SetPhase("run formation")
		chunk := slices.Clone(chunks[n.Rank])
		slices.SortStableFunc(chunk, byOrder)
		n.Mem.MustAcquire(int64(len(chunk)))
		if entry := n.Mem.Used(); n.Mem.Peak() != entry {
			return fmt.Errorf("rank %d: budget peak %d before the split, want its chunk's %d", n.Rank, n.Mem.Peak(), entry)
		}
		dselect.Split(c, n, dselect.Sorted[T]{Vals: chunk}, func(total int64) []int64 { return RankBounds(total, p)[1:p] })
		if grew := n.Mem.Peak() - int64(len(chunk)); grew > max(pool, j.SplitResidual) {
			return fmt.Errorf("rank %d: the split held %d elements beside its chunk: more than the pool of %d and the plan's SplitResidual %d", n.Rank, grew, pool, j.SplitResidual)
		}
		n.Mem.Release(int64(len(chunk)))

		// As run formation hands it over: unsorted, in the order
		// psort.Order found, charged with its permutation.
		entry := n.Mem.Used()
		vals := slices.Clone(chunks[n.Rank])
		perm := make([]int32, len(vals))
		psort.Order(c, vals, perm, 2)
		n.Mem.MustAcquire(int64(len(vals)) + permElems(int64(len(vals)), c.Size()))
		n.SetOpHook(func(op string) { calls[n.Rank] = append(calls[n.Rank], op) })
		var seg []T
		var segStart, runLen int64
		err := j.SortExact(n, dselect.Sorted[T]{Vals: vals, Perm: perm}, func(parts [][]T, start, total int64) error {
			seg, segStart, runLen = xmerge.AppendMerge(c, nil, parts), start, total
			return nil
		})
		n.SetOpHook(nil)
		if err != nil {
			return err
		}
		if used := n.Mem.Used(); used != entry {
			return fmt.Errorf("rank %d: %d elements charged after SortExact, %d before", n.Rank, used, entry)
		}
		want := all[bounds[n.Rank]:bounds[n.Rank+1]]
		if runLen != int64(len(all)) || segStart != bounds[n.Rank] || !bytes.Equal(elem.EncodeSlice(c, seg), elem.EncodeSlice(c, want)) {
			return fmt.Errorf("rank %d: segment of %d from %d of %d is not the central sort's %d from %d of %d", n.Rank, len(seg), segStart, runLen, len(want), bounds[n.Rank], len(all))
		}
		return nil
	})
	want := []string{"AllGather", "AllToAllv", "AllToAllv", "AllToAllv"}
	if p == 1 {
		want = want[3:]
	}
	for rank := range calls {
		if !slices.Equal(calls[rank], want) {
			t.Errorf("rank %d: SortExact called %v, want %v", rank, calls[rank], want)
		}
	}
}

// TestSortAcross drives the distributed-sort tail with cuts that are
// order-consistent but not balanced — the striped merge batch's use:
// every PE cuts its sorted chunk at the same key thresholds — and checks
// that each PE's start, summed from its parts' trailers, is what the
// lower ranks received.
func TestSortAcross(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sizes    []int
		keyRange uint64
	}{
		{"p1", []int{100}, 1000},
		{"p3_empty_rank", []int{120, 0, 75}, 1000},
		{"p4_uneven", []int{200, 1, 64, 130}, 1000},
		{"p4_all_equal", []int{50, 0, 70, 4}, 1}, // every threshold is 0: everything lands on the last rank
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := len(tc.sizes)
			chunks := tiles(tc.sizes, tc.keyRange, 7)
			out, starts := make([][]elem.KV16, p), make([]int64, p)
			onSim(t, kvc, Defaults(p, 1024, 256), make([][]elem.KV16, p), func(j *Job[elem.KV16], n *cluster.Node) error {
				n.SetPhase("merge")
				chunk := slices.Clone(chunks[n.Rank])
				slices.SortStableFunc(chunk, byKeyVal)
				cuts := make([]int64, p-1)
				for q := range cuts {
					threshold := tc.keyRange * uint64(q+1) / uint64(p)
					cuts[q] = int64(sort.Search(len(chunk), func(i int) bool { return chunk[i].Key >= threshold }))
				}
				entry := n.Mem.Used()
				n.Mem.MustAcquire(int64(len(chunk)))
				err := j.SortAcross(n, dselect.Sorted[elem.KV16]{Vals: chunk}, cuts, func(parts [][]elem.KV16, got, start int64) error {
					merged := xmerge.AppendMerge(kvc, make([]elem.KV16, 0, 8), parts) // a destination too small to hold it
					if used := n.Mem.Used(); int64(len(merged)) != got || used != entry+got {
						return fmt.Errorf("rank %d: %d elements charged for a result of %d (%d reported), want the received buffers'", n.Rank, used-entry, len(merged), got)
					}
					out[n.Rank], starts[n.Rank] = merged, start
					return nil
				})
				if used := n.Mem.Used(); err == nil && used != entry {
					return fmt.Errorf("rank %d: %d elements charged after SortAcross, %d before", n.Rank, used, entry)
				}
				return err
			})
			var all, got []elem.KV16
			for rank := range chunks {
				if starts[rank] != int64(len(got)) {
					t.Errorf("rank %d: piece starts at %d, the lower ranks received %d", rank, starts[rank], len(got))
				}
				all = append(all, chunks[rank]...)
				got = append(got, out[rank]...)
			}
			if !elem.IsSorted[elem.KV16](kvc, got) {
				t.Fatal("results do not concatenate to a sorted sequence")
			}
			if !samePermutation(got, all) {
				t.Fatal("results are not a permutation of the chunks")
			}
			if tc.keyRange == 1 && len(out[p-1]) != len(all) {
				t.Fatalf("all-equal keys under threshold cuts: the last rank got %d of %d", len(out[p-1]), len(all))
			}
		})
	}
}
