package job

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"testing"

	"demsort/internal/blockio"
	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/vtime"
	"demsort/internal/xmerge"
)

// callStore counts a FileStore's calls and the blocks they move.
type callStore struct {
	*blockio.FileStore
	reads, writes, readBlocks, writeBlocks int
}

func (s *callStore) ReadAt(id blockio.BlockID, dst []byte) error {
	s.reads, s.readBlocks = s.reads+1, s.readBlocks+1
	return s.FileStore.ReadAt(id, dst)
}

func (s *callStore) WriteAt(id blockio.BlockID, src []byte) error {
	s.writes, s.writeBlocks = s.writes+1, s.writeBlocks+1
	return s.FileStore.WriteAt(id, src)
}

func (s *callStore) ReadRange(first blockio.BlockID, lens []int, buf []byte) error {
	s.reads, s.readBlocks = s.reads+1, s.readBlocks+len(lens)
	return s.FileStore.ReadRange(first, lens, buf)
}

func (s *callStore) WriteRange(first blockio.BlockID, lens []int, buf []byte) error {
	s.writes, s.writeBlocks = s.writes+1, s.writeBlocks+len(lens)
	return s.FileStore.WriteRange(first, lens, buf)
}

func newCallStore(t *testing.T, blockBytes int) *callStore {
	fs, err := blockio.NewFileStore(filepath.Join(t.TempDir(), "vol"), blockBytes, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return &callStore{FileStore: fs}
}

// phaseStats is the volume's accounting: every phase's PhaseStats.
func phaseStats(vol *blockio.Volume) string {
	names, stats := vol.Clock().Stats()
	var s string
	for _, ph := range names {
		s += fmt.Sprintf("%s %+v; ", ph, *stats[ph])
	}
	return s
}

// TestStagedWriterMatchesBlockWriter: a writer staging 2, 3 or 8 blocks,
// fed the same pieces as a one-block writer and suspended, resumed (or
// appended to while suspended) and merged into at the same points,
// writes the same File, the same stored bytes and the same accounting —
// block for block, disk time and clock included — on blocks whose size
// is not a multiple of the element size. Its store sees one write call
// per stretch of consecutive blocks: the writer's blocks are
// consecutive, so between two suspensions b blocks take ⌈b/stage⌉ calls,
// where the one-block writer takes b.
func TestStagedWriterMatchesBlockWriter(t *testing.T) {
	rng := rand.New(rand.NewPCG(29, 31))
	for _, stage := range []int{2, 3, 8} {
		t.Run(fmt.Sprintf("kv16_stage%d", stage), func(t *testing.T) {
			checkStagedWriter(t, rng, kvc, stage, func() elem.KV16 { return elem.KV16{Key: rng.Uint64N(1000), Val: rng.Uint64()} })
		})
		t.Run(fmt.Sprintf("rec100_stage%d", stage), func(t *testing.T) {
			checkStagedWriter(t, rng, elem.Rec100Codec{}, stage, func() (r elem.Rec100) {
				for i := range r {
					r[i] = byte(rng.Uint32())
				}
				return r
			})
		})
	}
}

func checkStagedWriter[T any](t *testing.T, rng *rand.Rand, c elem.Codec[T], stage int, gen func() T) {
	const blockBytes = 1050
	perBlock := blockBytes / c.Size()
	for trial := range 10 {
		var stores [2]*callStore
		var vols [2]*blockio.Volume
		var ws [2]*Writer[T]
		for k := range ws {
			stores[k] = newCallStore(t, blockBytes)
			vols[k] = blockio.NewVolume(stores[k], blockBytes, 0, vtime.Default(), vtime.NewClock())
		}
		ws[0], ws[1] = NewWriter(c, vols[0]), NewStagedWriter(c, vols[1], stage)
		var all []T
		wantCalls, epoch := 0, int64(0) // epoch: blocks written before the stage last went out
		written := func() int64 { return vols[1].Clock().Cur().BlocksWritten }
		suspend := func() {
			for _, w := range ws {
				w.Suspend()
			}
			wantCalls += int((written() - epoch + int64(stage) - 1) / int64(stage))
			epoch = written()
		}
		for piece := range 12 {
			vs := make([]T, rng.IntN(4*perBlock))
			for i := range vs {
				vs[i] = gen()
			}
			all = append(all, vs...)
			for _, w := range ws {
				if piece%2 == 0 {
					w.AddBytes(elem.EncodeSlice(c, vs))
				} else {
					w.AddSlice(vs)
				}
			}
			if rng.IntN(2) == 0 {
				suspend()
				if rng.IntN(2) == 0 {
					for _, w := range ws {
						w.Resume()
					}
				}
			}
		}
		// A merge needs an empty tail: top the partial block up (every
		// block is full but the last).
		suspend()
		fill := make([]T, (perBlock-len(all)%perBlock)%perBlock)
		for i := range fill {
			fill[i] = gen()
		}
		all = append(all, fill...)
		parts := [][]T{slices.Clone(all[:len(all)/2]), slices.Clone(all[len(all)/2:])}
		for _, p := range parts {
			slices.SortStableFunc(p, orderOf(c))
		}
		for _, w := range ws {
			if w.Resume(); len(fill) > 0 {
				w.AddSlice(fill)
			}
			ps := slices.Clone(parts)
			w.Merge(len(ps), func(i int) []T { p := ps[i]; ps[i] = nil; return p }, nil, func([]T) {})
		}
		all = xmerge.AppendMerge(c, all, parts)
		var files [2]File
		for k, w := range ws {
			files[k] = w.Finish()
		}
		wantCalls += int((written() - epoch + int64(stage) - 1) / int64(stage))
		if !slices.Equal(files[0].Extents, files[1].Extents) || files[1].N != int64(len(all)) {
			t.Fatalf("trial %d: staged writer wrote %+v, one-block writer %+v", trial, files[1].Extents, files[0].Extents)
		}
		if a, b := phaseStats(vols[0]), phaseStats(vols[1]); a != b {
			t.Fatalf("trial %d: one-block writer accounted %s, staged %s", trial, a, b)
		}
		for k, f := range files {
			var stored []byte
			for _, e := range f.Extents {
				raw := make([]byte, e.Len*c.Size())
				vols[k].ReadWait(e.ID, raw)
				stored = append(stored, raw...)
			}
			if !bytes.Equal(stored, elem.EncodeSlice(c, all)) {
				t.Fatalf("trial %d: writer %d stored bytes differ from the elements' encoding", trial, k)
			}
		}
		blocks := int(written())
		if s := stores[0]; s.writes != blocks || s.writeBlocks != blocks {
			t.Fatalf("trial %d: one-block writer made %d write calls for %d of %d blocks", trial, s.writes, s.writeBlocks, blocks)
		}
		if s := stores[1]; s.writes != wantCalls || s.writeBlocks != blocks {
			t.Fatalf("trial %d: staged writer made %d write calls for %d of %d blocks, want %d calls", trial, s.writes, s.writeBlocks, blocks, wantCalls)
		}
	}
}

// TestMergeFilesReadsStretches: MergeFiles with read windows of 2, 3 and
// 7 blocks, on files whose blocks come in stretches of consecutive IDs
// broken by blocks of other files, trimmed at either end and partly not
// owned, merges the central merge of their contents and accounts what a
// block-at-a-time store does — the same counters, disk time and clock —
// while its store is called once per window: ⌈L/window⌉ reads for each
// stretch of L consecutive blocks of a file.
func TestMergeFilesReadsStretches(t *testing.T) {
	const blockBytes = 1000 // 62 KV16 per block, and bytes over
	var accounted []string
	for _, window := range []int{0, 2, 3, 7} { // 0: block at a time
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			cfg := Defaults(1, 1<<14, blockBytes)
			store := newCallStore(t, blockBytes)
			cfg.NewStore = func(int) (blockio.Store, error) {
				if window == 0 {
					return struct{ blockio.Store }{store}, nil
				}
				return store, nil
			}
			rng := rand.New(rand.NewPCG(43, 47)) // the same files in every row
			onSim(t, kvc, cfg, make([][]elem.KV16, 1), func(j *Job[elem.KV16], n *cluster.Node) error {
				j.ReadWindow = max(window, 2)
				files, contents := stretchFiles(rng, n.Vol)
				reads, wantReads := store.reads, 0
				for _, f := range files {
					for lo := 0; lo < len(f.Extents); {
						hi := lo + 1
						for hi < len(f.Extents) && f.Extents[hi].ID == f.Extents[hi-1].ID+1 {
							hi++
						}
						wantReads += (hi - lo + j.ReadWindow - 1) / j.ReadWindow
						lo = hi
					}
				}
				n.SetPhase("merge")
				var got []elem.KV16
				if _, err := j.MergeFiles(n, files, func(_ int, b []byte) error {
					got = elem.AppendDecode(kvc, got, b, len(b)/16)
					return nil
				}); err != nil {
					return err
				}
				if want := xmerge.AppendMerge(kvc, nil, contents); !slices.Equal(got, want) {
					return fmt.Errorf("merged %d elements, not the central merge of %d", len(got), len(want))
				}
				names, stats := n.PhaseStats()
				if window == 0 {
					wantReads = int(stats["merge"].BlocksRead)
				}
				if store.reads-reads != wantReads {
					return fmt.Errorf("%d read calls for %d blocks, want %d", store.reads-reads, stats["merge"].BlocksRead, wantReads)
				}
				accounted = append(accounted, fmt.Sprint(names, *stats["merge"]))
				return nil
			})
		})
	}
	for _, a := range accounted[1:] {
		if a != accounted[0] {
			t.Errorf("accounted %s, block at a time %s", a, accounted[0])
		}
	}
}

// stretchFiles writes four sorted files of KV16 onto vol: each in
// stretches of 1 to 9 blocks, a block of another file or a spare one
// between two stretches, the first file with its first extent trimmed
// and not owned and its last cut short, the second with a block given
// away in the middle of a stretch.
func stretchFiles(rng *rand.Rand, vol *blockio.Volume) ([]File, [][]elem.KV16) {
	const files, perBlock = 4, 62
	ws := make([]*Writer[elem.KV16], files)
	contents := make([][]elem.KV16, files)
	for f := range ws {
		ws[f] = NewWriter(kvc, vol)
		contents[f] = make([]elem.KV16, perBlock*(8+rng.IntN(30))+10+rng.IntN(perBlock-10))
		for i := range contents[f] {
			contents[f][i] = elem.KV16{Key: rng.Uint64N(500), Val: rng.Uint64()}
		}
		slices.SortStableFunc(contents[f], orderOf[elem.KV16](kvc))
	}
	next := make([]int, files)
	for live := files; live > 0; {
		f := rng.IntN(files)
		if next[f] == len(contents[f]) {
			if rng.IntN(4) == 0 {
				vol.Alloc() // a spare block
			}
			continue
		}
		hi := min(len(contents[f]), next[f]+perBlock*(1+rng.IntN(9)))
		ws[f].AddSlice(contents[f][next[f]:hi])
		if next[f] = hi; hi == len(contents[f]) {
			live--
		}
	}
	out := make([]File, files)
	for f, w := range ws {
		out[f] = w.Finish()
	}
	e := out[0].Extents
	e[0].Off, e[0].Len, e[0].Own = 5, e[0].Len-5, false
	e[len(e)-1].Len -= 7
	contents[0] = contents[0][5 : len(contents[0])-7]
	out[0].N -= 12
	out[1].Extents[3].Own = false
	return out, contents
}
