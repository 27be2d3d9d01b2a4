package morphstore

import (
	"context"
	"fmt"
	"testing"
)

// execPlan prepares plan with the options o on a fresh engine over db at
// parallelism par (0 = the engine default) and executes it once.
func execPlan(plan *Plan, db *DB, par int, o ...Option) (*Result, error) {
	pr, err := NewEngine(db, WithParallelism(par)).Prepare(plan, o...)
	if err != nil {
		return nil, err
	}
	return pr.Execute(context.Background())
}

// TestFacadeQuickstart exercises the public API end to end: compress,
// analyze, morph, select, project, sum.
func TestFacadeQuickstart(t *testing.T) {
	vals := make([]uint64, 10000)
	var want uint64
	for i := range vals {
		vals[i] = uint64(i % 97)
		if vals[i] < 10 {
			want += vals[i]
		}
	}
	col, err := Compress(vals, DynBP)
	if err != nil {
		t.Fatal(err)
	}
	if col.N() != len(vals) {
		t.Fatal("bad length")
	}
	prof := Analyze(vals)
	if prof.MaxBits != 7 {
		t.Fatalf("maxbits = %d", prof.MaxBits)
	}
	rec, err := SuggestFormat(prof, Formats())
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsCompressed() {
		t.Fatal("small values should compress")
	}
	static, err := Morph(col, StaticBP)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eng := NewEngine(nil, WithStyle(Vec512))
	pos, err := eng.Select(ctx, static, CmpLt, 10, WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	vcol, err := eng.Project(ctx, static, pos, WithOutput(DynBP))
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Sum(ctx, vcol)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	dec, err := Decompress(col)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if dec[i] != vals[i] {
			t.Fatal("round trip")
		}
	}
}

// TestFacadePlanAPI exercises plan building and execution via the facade.
func TestFacadePlanAPI(t *testing.T) {
	db := NewDB()
	db.AddTable("t", map[string][]uint64{
		"a": {1, 2, 3, 4, 5, 6},
		"b": {10, 20, 30, 40, 50, 60},
	})
	bld := NewPlanBuilder()
	a := bld.Scan("t", "a")
	bv := bld.Scan("t", "b")
	sel := bld.Select("sel", a, CmpGe, 4)
	proj := bld.Project("proj", bv, sel)
	bld.Result(bld.SumWhole("total", proj))
	plan, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range [][]Option{
		nil,
		{WithUniformFormat(DynBP), WithStyle(Vec512)},
	} {
		res, err := execPlan(plan, db, 0, cfg...)
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := res.Cols["total"].Values()
		if sum[0] != 150 {
			t.Fatalf("sum = %d, want 150", sum[0])
		}
	}
	best, worst, err := FootprintSearch(plan, db)
	if err != nil {
		t.Fatal(err)
	}
	if best == nil || worst == nil {
		t.Fatal("searches returned nil")
	}
	if _, err := CostBasedAssignment(plan, db); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeSSB exercises the SSB facade at a tiny scale.
func TestFacadeSSB(t *testing.T) {
	data, err := GenerateSSB(0.001, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := SSBQueries[0]
	plan, err := BuildSSBPlan(q, data)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execPlan(plan, data.DB, 0, WithStyle(Vec512))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExtractSSBResult(q, res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SSBReference(q, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].Sum != want[0].Sum || !SSBRowsEqual(got, want) {
		t.Fatalf("facade SSB result mismatch: %v vs %v", got, want)
	}
}

// TestFacadeSSBParallel runs all 13 SSB queries under the concurrent
// scheduler + morsel-parallel kernels and checks the canonical result rows
// against the row-wise ground truth.
func TestFacadeSSBParallel(t *testing.T) {
	data, err := GenerateSSB(0.005, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range SSBQueries {
		plan, err := BuildSSBPlan(q, data)
		if err != nil {
			t.Fatal(err)
		}
		res, err := execPlan(plan, data.DB, 8, WithStyle(Vec512))
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := ExtractSSBResult(q, res)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := SSBReference(q, data)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", q, len(got), len(want))
		}
		for i := range want {
			if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
				t.Fatalf("%s row %d: %v, want %v", q, i, got[i], want[i])
			}
		}
	}
}

// TestFacadeParallelOps checks every public Engine one-off operator call on
// a morsel-parallel engine against the same call on a sequential engine,
// byte for byte.
func TestFacadeParallelOps(t *testing.T) {
	// Large enough to clear the 2*MinMorsel split threshold, so the
	// morsel-parallel drivers genuinely run rather than falling back.
	vals := make([]uint64, 9000)
	gids := make([]uint64, len(vals))
	posA := make([]uint64, 0, len(vals))
	posB := make([]uint64, 0, len(vals))
	for i := range vals {
		vals[i] = uint64(i % 777)
		gids[i] = uint64(i % 5)
		if i%2 == 0 {
			posA = append(posA, uint64(i))
		}
		if i%3 == 0 {
			posB = append(posB, uint64(i))
		}
	}
	col, err := Compress(vals, DynBP)
	if err != nil {
		t.Fatal(err)
	}
	data, gcol := FromValues(vals), FromValues(gids)
	pa, pb := FromValues(posA), FromValues(posB)
	build := FromValues([]uint64{3, 50, 200, 600})
	ctx := context.Background()
	seq := NewEngine(nil, WithParallelism(1), WithStyle(Vec512))
	par := NewEngine(nil, WithParallelism(4), WithStyle(Vec512))
	sel, err := seq.Select(ctx, col, CmpLt, 100, WithOutput(DeltaBP))
	if err != nil {
		t.Fatal(err)
	}
	prevGids, _, err := seq.GroupFirst(ctx, gcol, WithOutputs(DynBP, Uncompressed))
	if err != nil {
		t.Fatal(err)
	}

	one := func(c *Column, err error) ([]*Column, error) { return []*Column{c}, err }
	two := func(a, b *Column, err error) ([]*Column, error) { return []*Column{a, b}, err }
	cases := []struct {
		name string
		run  func(e *Engine) ([]*Column, error)
	}{
		{"select", func(e *Engine) ([]*Column, error) {
			return one(e.Select(ctx, col, CmpLt, 100, WithOutput(DeltaBP)))
		}},
		{"between", func(e *Engine) ([]*Column, error) {
			return one(e.SelectBetween(ctx, col, 10, 20, WithStyle(Scalar)))
		}},
		{"semijoin", func(e *Engine) ([]*Column, error) {
			return one(e.SemiJoin(ctx, col, FromValues([]uint64{5, 6}), WithStyle(Scalar)))
		}},
		{"project", func(e *Engine) ([]*Column, error) {
			return one(e.Project(ctx, data, sel, WithStyle(Scalar)))
		}},
		{"sum", func(e *Engine) ([]*Column, error) {
			s, err := e.Sum(ctx, col)
			return one(FromValues([]uint64{s}), err)
		}},
		{"join", func(e *Engine) ([]*Column, error) { return two(e.JoinN1(ctx, col, build)) }},
		{"calc", func(e *Engine) ([]*Column, error) {
			return one(e.Calc(ctx, CalcAdd, col, col, WithOutput(DynBP)))
		}},
		{"sum grouped", func(e *Engine) ([]*Column, error) { return one(e.SumGrouped(ctx, gcol, col, 5)) }},
		{"group first", func(e *Engine) ([]*Column, error) {
			return two(e.GroupFirst(ctx, gcol, WithOutputs(DynBP, Uncompressed)))
		}},
		{"group next", func(e *Engine) ([]*Column, error) {
			return two(e.GroupNext(ctx, prevGids, col, WithOutputs(DynBP, Uncompressed)))
		}},
		{"intersect", func(e *Engine) ([]*Column, error) {
			return one(e.Intersect(ctx, pa, pb, WithOutput(DeltaBP)))
		}},
		{"union", func(e *Engine) ([]*Column, error) { return one(e.Union(ctx, pa, pb, WithOutput(DeltaBP))) }},
	}
	for _, tc := range cases {
		want, err := tc.run(seq)
		if err != nil {
			t.Fatalf("%s sequential: %v", tc.name, err)
		}
		got, err := tc.run(par)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		for i := range want {
			if !sameColumn(want[i], got[i]) {
				t.Fatalf("%s output %d: %v, want %v", tc.name, i, got[i], want[i])
			}
		}
	}
}

// sameColumn reports whether two columns hold the same format, length and
// physical words.
func sameColumn(a, b *Column) bool {
	if a.Desc() != b.Desc() || a.N() != b.N() || a.MainElems() != b.MainElems() {
		return false
	}
	aw, bw := a.Words(), b.Words()
	if len(aw) != len(bw) {
		return false
	}
	for i := range aw {
		if aw[i] != bw[i] {
			return false
		}
	}
	return true
}

// TestFacadeFormats sanity-checks the format constructors.
func TestFacadeFormats(t *testing.T) {
	if len(Formats()) != 5 {
		t.Errorf("Formats() = %d entries, want the paper's 5", len(Formats()))
	}
	if len(AllFormats()) != 6 {
		t.Errorf("AllFormats() = %d entries, want 6", len(AllFormats()))
	}
	if StaticBPWidth(13).Bits != 13 {
		t.Error("StaticBPWidth")
	}
	c := FromValues([]uint64{1, 2})
	if c.N() != 2 {
		t.Error("FromValues")
	}
	ctx := context.Background()
	eng := NewEngine(nil)
	if _, err := eng.Calc(ctx, CalcMul, c, c); err != nil {
		t.Error(err)
	}
	if _, err := eng.Intersect(ctx, c, c); err != nil {
		t.Error(err)
	}
	if _, err := eng.Union(ctx, c, c); err != nil {
		t.Error(err)
	}
	if _, err := eng.SelectBetween(ctx, c, 1, 2); err != nil {
		t.Error(err)
	}
	p := Analyze([]uint64{5, 5, 5})
	if n, err := EstimateBytes(p, RLE); err != nil || n <= 0 {
		t.Error("EstimateBytes")
	}
}

func TestFacadeConcatCompressed(t *testing.T) {
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = uint64(2 * i)
	}
	for _, desc := range AllFormats() {
		whole, err := Compress(vals, desc)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Compress(vals[:1024], desc)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Compress(vals[1024:], desc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ConcatCompressed(desc, []*Column{a, b})
		if err != nil {
			t.Fatalf("%v: %v", desc, err)
		}
		gw, ww := got.Words(), whole.Words()
		if got.Desc() != whole.Desc() || got.N() != whole.N() || len(gw) != len(ww) {
			t.Fatalf("%v: concat shape differs: %v vs %v", desc, got, whole)
		}
		for i := range ww {
			if gw[i] != ww[i] {
				t.Fatalf("%v: word %d differs", desc, i)
			}
		}
	}
}
