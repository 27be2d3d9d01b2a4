package ops

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"morphstore/internal/bitutil"
	"morphstore/internal/columns"
	"morphstore/internal/faultpoint"
	"morphstore/internal/formats"
	"morphstore/internal/qerr"
	"morphstore/internal/vector"
)

// faultTestColumn is large enough to split into many morsels at par 4.
func faultTestColumn(t testing.TB) *columns.Column {
	t.Helper()
	vals := make([]uint64, 16*formats.MinMorsel)
	for i := range vals {
		vals[i] = uint64(i % 1000)
	}
	col, err := formats.Compress(vals, columns.DynBPDesc)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// assertBudgetIdle asserts every lease was closed and every worker slot
// released — the invariant each failure mode must restore.
func assertBudgetIdle(t *testing.T, b *Budget, mode string) {
	t.Helper()
	if n := b.Leases(); n != 0 {
		t.Fatalf("%s: %d leases leaked", mode, n)
	}
	if n := b.InUse(); n != 0 {
		t.Fatalf("%s: %d worker slots leaked", mode, n)
	}
}

// runSelect runs one budget-leased parallel select and returns its error.
func runSelect(ctx context.Context, b *Budget, col *columns.Column) error {
	lease := b.Lease(4)
	defer lease.Close()
	rt := RT(ctx, lease, 4)
	_, err := rt.SelectAuto(col, bitutil.CmpLt, 500, columns.DeltaBPDesc, vector.Scalar, false)
	return err
}

// TestRunPartsPanicIsolation injects a panic into the kernel body and checks
// it surfaces as a typed *qerr.QueryError with the morsel index, the budget
// returns to idle, and the same runtime produces correct results afterwards.
func TestRunPartsPanicIsolation(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	b := NewBudget(4)

	faultpoint.KernelBody.Arm(func() error { panic("injected kernel panic") })
	err := runSelect(context.Background(), b, col)
	var qe *qerr.QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("panic did not surface as QueryError: %v", err)
	}
	if qe.Morsel < 0 {
		t.Fatalf("QueryError lost its morsel index: %+v", qe)
	}
	if qe.Panic != "injected kernel panic" {
		t.Fatalf("QueryError lost the panic value: %+v", qe)
	}
	if len(qe.Stack) == 0 {
		t.Fatal("QueryError lost the stack")
	}
	assertBudgetIdle(t, b, "kernel panic")

	// The runtime and budget must be fully usable after the failure.
	faultpoint.DisarmAll()
	if err := runSelect(context.Background(), b, col); err != nil {
		t.Fatalf("select after recovered panic: %v", err)
	}
	assertBudgetIdle(t, b, "after recovery")
}

// TestBudgetIdleAfterFailureModes drives a budget-leased parallel driver
// through every failure mode and asserts the budget is idle after each one.
func TestBudgetIdleAfterFailureModes(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	injected := fmt.Errorf("injected: %w", formats.ErrCorrupt)

	modes := []struct {
		name string
		run  func(t *testing.T, b *Budget)
	}{
		{"success", func(t *testing.T, b *Budget) {
			if err := runSelect(context.Background(), b, col); err != nil {
				t.Fatal(err)
			}
		}},
		{"cancellation", func(t *testing.T, b *Budget) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := runSelect(ctx, b, col); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run: %v", err)
			}
		}},
		{"morsel claim error", func(t *testing.T, b *Budget) {
			faultpoint.MorselClaim.Arm(func() error { return injected })
			defer faultpoint.MorselClaim.Disarm()
			if err := runSelect(context.Background(), b, col); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("morsel-claim error not typed: %v", err)
			}
		}},
		{"kernel error", func(t *testing.T, b *Budget) {
			faultpoint.KernelBody.Arm(func() error { return injected })
			defer faultpoint.KernelBody.Disarm()
			if err := runSelect(context.Background(), b, col); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("kernel error not typed: %v", err)
			}
		}},
		{"kernel panic", func(t *testing.T, b *Budget) {
			faultpoint.KernelBody.Arm(func() error { panic(injected) })
			defer faultpoint.KernelBody.Disarm()
			err := runSelect(context.Background(), b, col)
			if !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("panic with corrupt error must match the sentinel: %v", err)
			}
		}},
		{"stitch seam error", func(t *testing.T, b *Budget) {
			faultpoint.StitchSeam.Arm(func() error { return injected })
			defer faultpoint.StitchSeam.Disarm()
			if err := runSelect(context.Background(), b, col); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("stitch-seam error not typed: %v", err)
			}
		}},
		{"concat fixup error", func(t *testing.T, b *Budget) {
			faultpoint.ConcatFixup.Arm(func() error { return injected })
			defer faultpoint.ConcatFixup.Disarm()
			if err := runSelect(context.Background(), b, col); !errors.Is(err, qerr.ErrCorruptData) {
				t.Fatalf("concat-fixup error not typed: %v", err)
			}
		}},
	}
	for _, m := range modes {
		b := NewBudget(4)
		t.Run(m.name, func(t *testing.T) {
			m.run(t, b)
			assertBudgetIdle(t, b, m.name)
		})
	}
}

// TestBudgetRedivideFaultLeaksNoLease checks the fault point at the budget
// seam fires before the lease registers: a panicking Lease call must leave
// the budget empty, not holding a lease nobody can close.
func TestBudgetRedivideFaultLeaksNoLease(t *testing.T) {
	defer faultpoint.DisarmAll()
	b := NewBudget(4)
	faultpoint.BudgetRedivide.Arm(func() error { return errors.New("injected") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Lease did not escalate the injected error")
			}
		}()
		b.Lease(2)
	}()
	assertBudgetIdle(t, b, "budget-redivide panic")
	faultpoint.DisarmAll()
	l := b.Lease(2)
	l.Close()
	assertBudgetIdle(t, b, "after redivide recovery")
}

// TestGroupMergeFaultPanics checks the merge-phase fault point escalates to a
// panic (the grouping drivers have no error path there; the engine layer
// recovers it — see the core chaos test).
func TestGroupMergeFaultPanics(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	faultpoint.GroupMerge.Arm(func() error { return errors.New("injected") })
	defer func() {
		if recover() == nil {
			t.Fatal("group merge did not escalate the injected error")
		}
	}()
	_, _, _ = FixedRT(4).GroupFirst(col, columns.UncomprDesc, columns.UncomprDesc, vector.Scalar)
}

// TestRunPartsNoGoroutineLeak runs many failing executions and checks the
// worker goroutines all exited.
func TestRunPartsNoGoroutineLeak(t *testing.T) {
	defer faultpoint.DisarmAll()
	col := faultTestColumn(t)
	b := NewBudget(4)
	before := runtime.NumGoroutine()
	faultpoint.KernelBody.Arm(func() error { panic("injected") })
	for i := 0; i < 50; i++ {
		_ = runSelect(context.Background(), b, col)
	}
	faultpoint.DisarmAll()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}

// TestRunPartsStopsSiblingsAfterFailure checks workers stop claiming morsels
// once one fails: with a fault firing on the first claim, the completed work
// should stay far below the partition count.
func TestRunPartsStopsSiblingsAfterFailure(t *testing.T) {
	defer faultpoint.DisarmAll()
	var fired bool
	faultpoint.MorselClaim.Arm(func() error {
		if !fired {
			fired = true
			return errors.New("injected first-claim failure")
		}
		return nil
	})
	ran := 0
	rt := FixedRT(1) // one worker: deterministic claim order
	err := rt.runTasks(100, func(_, _ int) error { ran++; return nil })
	if err == nil {
		t.Fatal("injected failure did not surface")
	}
	if ran != 0 {
		t.Fatalf("workers kept claiming after failure: %d tasks ran", ran)
	}
}
