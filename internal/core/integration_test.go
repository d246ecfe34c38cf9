package core

import (
	"fmt"
	"path/filepath"
	"testing"
	"testing/quick"

	"demsort/internal/blockio"
	"demsort/internal/elem"
	"demsort/internal/workload"
)

// TestSortOnFileBackedStores runs the whole sort against real files:
// every block genuinely round-trips through the filesystem, proving
// the external-memory path end to end (not just the RAM-backed store).
func TestSortOnFileBackedStores(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(4)
	cfg.NewStore = func(rank int) (blockio.Store, error) {
		return blockio.NewFileStore(filepath.Join(dir, fmt.Sprintf("pe%d.vol", rank)), cfg.BlockBytes, false)
	}
	input := inputFor(cfg, workload.Uniform, 6000, 77)
	res, err := Sort[elem.KV16](kvc, cfg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(kvc, input); err != nil {
		t.Fatal(err)
	}
	if res.Runs < 2 {
		t.Fatalf("expected external regime, R=%d", res.Runs)
	}
}

// TestSortQuickProperty drives the full distributed sort with
// quick-generated shapes: arbitrary machine sizes, block sizes,
// workload kinds and randomization flags must all produce the exact
// canonical partition.
func TestSortQuickProperty(t *testing.T) {
	kinds := workload.Kinds()
	f := func(pSel, kindSel, blockSel uint8, randomize bool, seed uint64) bool {
		p := 1 + int(pSel%6)
		kind := kinds[int(kindSel)%len(kinds)]
		blockBytes := []int{256, 512, 1024}[int(blockSel)%3]
		cfg := DefaultConfig(p, 1<<13, blockBytes)
		cfg.Randomize = randomize
		cfg.Seed = seed
		cfg.KeepOutput = true
		perPE := 2000 + int(seed%4000)
		input := workload.Generate(kind, p, perPE, seed)
		res, err := Sort[elem.KV16](kvc, cfg, input)
		if err != nil {
			t.Logf("config p=%d kind=%s block=%d: %v", p, kind, blockBytes, err)
			return false
		}
		return res.Validate(kvc, input) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}
