package exp

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCellsOrderAndStealing(t *testing.T) {
	n := 100
	out, err := runCells(Config{Workers: 8}, n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (ordering broken)", i, v, i*i)
		}
	}
}

func TestRunCellsFirstErrorByIndex(t *testing.T) {
	boom7 := errors.New("cell 7")
	boom3 := errors.New("cell 3")
	_, err := runCells(Config{Workers: 4}, 10, func(i int) (int, error) {
		switch i {
		case 3:
			return 0, boom3
		case 7:
			return 0, boom7
		}
		return i, nil
	})
	if !errors.Is(err, boom3) {
		t.Fatalf("err = %v, want the lowest-index error (what a serial run returns)", err)
	}
}

// TestFanStopsAfterFirstError: once a cell fails, no worker claims a new
// index, so a batch whose first cell fails does not run the rest.
func TestFanStopsAfterFirstError(t *testing.T) {
	const n = 1000
	boom := errors.New("cell 0")
	zeroDone := make(chan struct{})
	var calls atomic.Int64
	_, err := Fan(2, n, nil, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			close(zeroDone)
			return 0, boom
		}
		<-zeroDone
		time.Sleep(50 * time.Microsecond)
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want cell 0's error", err)
	}
	if c := calls.Load(); c >= n/10 {
		t.Fatalf("fn ran %d of %d times after cell 0 failed, want far fewer", c, n)
	}
}

func TestRunCellsSerialFallback(t *testing.T) {
	calls := 0
	out, err := runCells(Config{Workers: 1}, 5, func(i int) (int, error) { calls++; return i, nil })
	if err != nil || len(out) != 5 || calls != 5 {
		t.Fatalf("serial fallback: out=%v err=%v calls=%d", out, err, calls)
	}
	if out, err := runCells(Config{Workers: 4}, 0, func(i int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty input: out=%v err=%v", out, err)
	}
}

// The suite-wide budget must bound concurrently-executing cells even when
// several fan-outs run at once (All's nested-figure shape).
func TestRunCellsHonorsSuiteBudget(t *testing.T) {
	const budget = 2
	cfg := Config{Workers: 8, budget: make(chan struct{}, budget)}
	var running, peak atomic.Int64
	cell := func(i int) (int, error) {
		now := running.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		for j := 0; j < 1000; j++ { // hold the token long enough to overlap
			_ = j
		}
		running.Add(-1)
		return i, nil
	}
	done := make(chan error, 3)
	for k := 0; k < 3; k++ { // three concurrent fan-outs share one budget
		go func() {
			_, err := runCells(cfg, 40, cell)
			done <- err
		}()
	}
	for k := 0; k < 3; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p := peak.Load(); p > budget {
		t.Fatalf("peak concurrent cells = %d, budget %d", p, budget)
	}
	if _, err := leafCell(cfg, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
}

// tablesEqual compares rendered artifacts, which covers columns, rows and
// notes byte-for-byte.
func tablesEqual(a, b []*Table) error {
	if len(a) != len(b) {
		return fmt.Errorf("table counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return fmt.Errorf("table %s differs between schedules:\n--- serial ---\n%s--- parallel ---\n%s",
				a[i].ID, a[i].String(), b[i].String())
		}
		if !reflect.DeepEqual(a[i].Notes, b[i].Notes) {
			return fmt.Errorf("table %s notes differ", a[i].ID)
		}
	}
	return nil
}

// The whole figure suite must produce byte-identical tables at any worker
// count — the parallel runner's determinism guarantee.
func TestParallelSuiteMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite comparison is not short")
	}
	serialCfg := QuickConfig()
	serialCfg.Workers = 1
	serial, err := All(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallelCfg := QuickConfig()
	parallelCfg.Workers = 8
	parallel, err := All(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tablesEqual(serial, parallel); err != nil {
		t.Fatal(err)
	}
}

// benchSuite regenerates the full quick suite at the given worker count.
func benchSuite(b *testing.B, workers int) {
	b.Helper()
	cfg := QuickConfig()
	cfg.Workers = workers
	for i := 0; i < b.N; i++ {
		if _, err := All(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpSerial is the pre-PR schedule: every figure cell in sequence.
func BenchmarkExpSerial(b *testing.B) { benchSuite(b, 1) }

// BenchmarkExpParallel fans figure cells across all cores; the ns/op ratio
// against BenchmarkExpSerial is the suite's wall-clock speedup.
func BenchmarkExpParallel(b *testing.B) { benchSuite(b, 0) }
