package fault

import (
	"errors"
	"testing"
	"time"

	"sqlprogress/internal/exec"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// tinyPlan builds a Values leaf delivering n rows — n counted GetNext calls.
func tinyPlan(n int) exec.Operator {
	sch := schema.New(schema.Column{Name: "v", Type: sqlval.KindInt})
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.Row{sqlval.Int(int64(i))}
	}
	return exec.NewValues(sch, rows)
}

func TestInjectorErrorAtExactCall(t *testing.T) {
	root := tinyPlan(10)
	ctx := exec.NewCtx()
	inj := NewInjector(Schedule{Events: []Event{{At: 4, Kind: ErrorFault, Msg: "disk gone"}}})
	inj.Arm(ctx)
	_, err := exec.RunBatch(ctx, root)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	var op *OpError
	if !errors.As(err, &op) || op.At != 4 || op.Msg != "disk gone" {
		t.Fatalf("OpError = %+v", op)
	}
	if got := ctx.Calls(); got != 4 {
		t.Fatalf("Calls = %d, want exactly 4", got)
	}
	if fired := inj.Fired(); len(fired) != 1 || fired[0].At != 4 {
		t.Fatalf("Fired = %v", fired)
	}
}

func TestInjectorCancelAtExactCall(t *testing.T) {
	root := tinyPlan(10)
	ctx := exec.NewCtx()
	inj := NewInjector(Schedule{Events: []Event{{At: 7, Kind: CancelFault}}})
	inj.Arm(ctx)
	_, err := exec.RunBatch(ctx, root)
	if !errors.Is(err, exec.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// The cancel lands during call 7; the run stops at the next counted
	// call, so the final counter is exactly the scheduled index.
	if got := ctx.Calls(); got != 7 {
		t.Fatalf("Calls = %d, want exactly 7", got)
	}
}

func TestInjectorCancelOnFinalCallCompletes(t *testing.T) {
	root := tinyPlan(5)
	ctx := exec.NewCtx()
	inj := NewInjector(Schedule{Events: []Event{{At: 5, Kind: CancelFault}}})
	inj.Arm(ctx)
	rows, err := exec.RunBatch(ctx, root)
	// The cancel fires during the last counted call: every row has been
	// delivered, EOF is not a counted call, so the run completes normally.
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if len(rows) != 5 || ctx.Calls() != 5 {
		t.Fatalf("rows = %d, calls = %d", len(rows), ctx.Calls())
	}
}

func TestInjectorStallDoesNotPerturbRun(t *testing.T) {
	root := tinyPlan(8)
	ctx := exec.NewCtx()
	inj := NewInjector(Schedule{Events: []Event{
		{At: 2, Kind: StallFault, Dur: time.Millisecond},
		{At: 6, Kind: StallFault, Dur: time.Millisecond},
	}})
	inj.Arm(ctx)
	start := time.Now()
	rows, err := exec.RunBatch(ctx, root)
	if err != nil || len(rows) != 8 || ctx.Calls() != 8 {
		t.Fatalf("rows = %d, calls = %d, err = %v", len(rows), ctx.Calls(), err)
	}
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("stalls not applied: run took %v", elapsed)
	}
	if fired := inj.Fired(); len(fired) != 2 {
		t.Fatalf("Fired = %v", fired)
	}
}

func TestInjectorSameCallFiresInScheduleOrder(t *testing.T) {
	root := tinyPlan(10)
	ctx := exec.NewCtx()
	inj := NewInjector(Schedule{Events: []Event{
		{At: 3, Kind: StallFault, Dur: time.Microsecond},
		{At: 3, Kind: ErrorFault, Msg: "boom"},
	}})
	inj.Arm(ctx)
	_, err := exec.RunBatch(ctx, root)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	fired := inj.Fired()
	if len(fired) != 2 || fired[0].Kind != StallFault || fired[1].Kind != ErrorFault {
		t.Fatalf("Fired = %v", fired)
	}
}

func TestInjectorPastHorizonNeverFires(t *testing.T) {
	root := tinyPlan(10)
	ctx := exec.NewCtx()
	inj := NewInjector(Schedule{Events: []Event{{At: 1000, Kind: ErrorFault, Msg: "late"}}})
	inj.Arm(ctx)
	rows, err := exec.RunBatch(ctx, root)
	if err != nil || len(rows) != 10 {
		t.Fatalf("rows = %d, err = %v", len(rows), err)
	}
	if fired := inj.Fired(); len(fired) != 0 {
		t.Fatalf("Fired = %v, want none", fired)
	}
}

func TestScheduleStringParseRoundTrip(t *testing.T) {
	cases := []Schedule{
		{},
		{Seed: 42, Events: []Event{
			{At: 123, Kind: StallFault, Dur: 500 * time.Microsecond},
			{At: 456, Kind: ErrorFault, Msg: "disk gone"},
			{At: 789, Kind: CancelFault},
		}},
		{Events: []Event{{At: 1, Kind: ErrorFault, Msg: "msg with spaces"}}},
		// Unsorted input: String sorts, so the round trip canonicalizes.
		{Seed: 7, Events: []Event{
			{At: 9, Kind: CancelFault},
			{At: 2, Kind: StallFault, Dur: time.Millisecond},
		}},
	}
	for _, s := range cases {
		text := s.String()
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := back.String(); got != text {
			t.Fatalf("round trip %q -> %q", text, got)
		}
	}
}

func TestParseRejectsMalformedSchedules(t *testing.T) {
	bad := []string{
		"seed=notanumber",
		"nonsense",
		"explode@5",
		"stall@5",           // missing duration
		"stall@5:fast",      // bad duration
		"cancel@5:arg",      // cancel takes no argument
		"error@0:msg",       // call indices are 1-based
		"error@minusone:ms", // non-numeric call index
	}
	for _, text := range bad {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Profile{Horizon: 1000, MaxStalls: 3, MaxStall: time.Millisecond, PError: 0.3, PCancel: 0.3}
	for seed := int64(1); seed <= 50; seed++ {
		a, b := Generate(seed, p), Generate(seed, p)
		if a.String() != b.String() {
			t.Fatalf("seed %d not deterministic: %q vs %q", seed, a, b)
		}
		terminal := 0
		for _, ev := range a.Events {
			if ev.At < 1 || ev.At > p.Horizon {
				t.Fatalf("seed %d: event %v outside [1,%d]", seed, ev, p.Horizon)
			}
			switch ev.Kind {
			case ErrorFault, CancelFault:
				terminal++
			case StallFault:
				if ev.Dur <= 0 || ev.Dur > p.MaxStall {
					t.Fatalf("seed %d: stall duration %v", seed, ev.Dur)
				}
			}
		}
		if terminal > 1 {
			t.Fatalf("seed %d: %d terminal faults in %q", seed, terminal, a)
		}
	}
}

func TestGenerateConsumersDeterministic(t *testing.T) {
	p := ServiceProfile{Burst: 16, PSlowConsumer: 0.3, PFrozenConsumer: 0.3, MaxReadDelay: time.Millisecond}
	a, b := GenerateConsumers(9, p), GenerateConsumers(9, p)
	if len(a) != p.Burst || len(b) != p.Burst {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	var frozen, slow int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d not deterministic: %+v vs %+v", i, a[i], b[i])
		}
		switch {
		case a[i].FreezeAfter >= 0:
			frozen++
			if !a[i].Reattach {
				t.Fatalf("frozen plan %d does not reattach: %+v", i, a[i])
			}
		case a[i].ReadDelay > 0:
			slow++
			if a[i].ReadDelay > p.MaxReadDelay {
				t.Fatalf("plan %d delay %v", i, a[i].ReadDelay)
			}
		}
	}
	if frozen+slow == 0 {
		t.Fatal("seed 9 produced no hostile consumers; pick another seed")
	}
}
