package failpoint

import (
	"errors"
	"testing"
	"time"
)

func reset(t *testing.T) {
	t.Helper()
	Reset()
	t.Cleanup(Reset)
}

func TestDisarmedIsFree(t *testing.T) {
	reset(t)
	if err := Inject("nobody.armed.this"); err != nil {
		t.Fatalf("disarmed inject returned %v", err)
	}
	if avg := testing.AllocsPerRun(1000, func() { Inject("nobody.armed.this") }); avg != 0 {
		t.Fatalf("disarmed Inject allocates %v per call, want 0", avg)
	}
}

func TestUnrelatedArmDoesNotFire(t *testing.T) {
	reset(t)
	ArmPoint("other.point", Point{Kind: KindErr})
	if err := Inject("this.point"); err != nil {
		t.Fatalf("unarmed point fired: %v", err)
	}
}

func TestErrAndCancelKinds(t *testing.T) {
	reset(t)
	ArmPoint("p.err", Point{Kind: KindErr})
	ArmPoint("p.cancel", Point{Kind: KindCancel})

	err := Inject("p.err")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err kind: got %v, want ErrInjected", err)
	}
	if IsCancel(err) {
		t.Fatal("err kind reported as cancel")
	}
	cerr := Inject("p.cancel")
	if !errors.Is(cerr, ErrInjected) || !IsCancel(cerr) {
		t.Fatalf("cancel kind: got %v (IsCancel=%v)", cerr, IsCancel(cerr))
	}
}

func TestPanicKind(t *testing.T) {
	reset(t)
	ArmPoint("p.boom", Point{Kind: KindPanic})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Name != "p.boom" || fe.Kind != KindPanic {
			t.Fatalf("recovered %v, want *Error{p.boom, panic}", r)
		}
	}()
	Inject("p.boom")
	t.Fatal("armed panic failpoint did not panic")
}

func TestDelayKind(t *testing.T) {
	reset(t)
	ArmPoint("p.slow", Point{Kind: KindDelay, Delay: 30 * time.Millisecond})
	start := time.Now()
	if err := Inject("p.slow"); err != nil {
		t.Fatalf("delay returned error %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay slept %v, want ≥ 30ms", d)
	}
}

func TestTimesAutoDisarms(t *testing.T) {
	reset(t)
	ArmPoint("p.twice", Point{Kind: KindErr, Times: 2})
	for i := 0; i < 2; i++ {
		if err := Inject("p.twice"); err == nil {
			t.Fatalf("fire %d: no fault", i)
		}
	}
	if err := Inject("p.twice"); err != nil {
		t.Fatalf("fired beyond Times: %v", err)
	}
	if got := Active(); len(got) != 0 {
		t.Fatalf("point still armed after Times firings: %v", got)
	}
}

func TestSkipDelaysFirstFire(t *testing.T) {
	reset(t)
	// Fire exactly the third hit: skip 2, fire once.
	if err := Arm("p.third", "err@1#2"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := Inject("p.third"); err != nil {
			t.Fatalf("hit %d fired during skip window: %v", i+1, err)
		}
	}
	if err := Inject("p.third"); err == nil {
		t.Fatal("third hit did not fire")
	}
	if err := Inject("p.third"); err != nil {
		t.Fatalf("fourth hit fired after auto-disarm: %v", err)
	}
}

func TestArmFromSpec(t *testing.T) {
	reset(t)
	spec := "a.one=panic@1; b.two=delay:5ms ,c.three=cancel#1;"
	if err := ArmFromSpec(spec); err != nil {
		t.Fatal(err)
	}
	got := Active()
	want := []string{"a.one", "b.two", "c.three"}
	if len(got) != len(want) {
		t.Fatalf("armed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("armed %v, want %v", got, want)
		}
	}
}

func TestArmFromSpecErrors(t *testing.T) {
	reset(t)
	for _, bad := range []string{
		"noequals",
		"=panic",
		"x=explode",
		"x=delay",
		"x=delay:banana",
		"x=panic:arg",
		"x=err@0",
		"x=err@-1",
		"x=err#-1",
	} {
		if err := ArmFromSpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
		Reset()
	}
}

func TestArmFromEnv(t *testing.T) {
	reset(t)
	t.Setenv(EnvVar, "env.point=err@1")
	if err := ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	if err := Inject("env.point"); err == nil {
		t.Fatal("env-armed point did not fire")
	}

	t.Setenv(EnvVar, "")
	Reset()
	if err := ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	if got := Active(); len(got) != 0 {
		t.Fatalf("empty env armed %v", got)
	}
}

func TestHitsCounting(t *testing.T) {
	reset(t)
	ArmPoint("p.count", Point{Kind: KindDelay, Delay: 0, Skip: 1})
	for i := 0; i < 3; i++ {
		Inject("p.count")
	}
	if h := Hits("p.count"); h != 3 {
		t.Fatalf("Hits = %d, want 3", h)
	}
	if h := Hits("p.unknown"); h != 0 {
		t.Fatalf("Hits(unknown) = %d, want 0", h)
	}
}

func TestRearmResetsCounts(t *testing.T) {
	reset(t)
	ArmPoint("p.re", Point{Kind: KindErr})
	Inject("p.re")
	if err := Arm("p.re", "err#1"); err != nil {
		t.Fatal(err)
	}
	// Fresh skip window: the first post-rearm hit must not fire.
	if err := Inject("p.re"); err != nil {
		t.Fatalf("first hit after re-arm fired: %v", err)
	}
	if err := Inject("p.re"); err == nil {
		t.Fatal("second hit after re-arm did not fire")
	}
}

func TestConcurrentInjectAndArm(t *testing.T) {
	reset(t)
	ArmPoint("p.race", Point{Kind: KindErr})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			Inject("p.race")
			Inject("p.other")
		}
	}()
	for i := 0; i < 200; i++ {
		ArmPoint("p.other", Point{Kind: KindDelay})
		Disarm("p.other")
	}
	<-done
}

// armedProbe is a Canceler that records, at the moment it is tripped,
// whether its point was still armed.
type armedProbe struct {
	name          string
	armedAtCancel bool
	cancels       int
}

// Cancel runs under the registry lock, so it reads the registry
// directly rather than through the locking accessors.
func (p *armedProbe) Cancel() {
	_, ok := points[p.name]
	p.armedAtCancel = ok && armedCount.Load() > 0
	p.cancels++
}

// TestInjectCancelTripsBeforeDisarm: a "cancel@1" point trips the
// site's flag while it is still armed, and only then disarms. A probe
// that finds the point disarmed therefore always finds the flag set —
// the ordering a parallel loop's other workers rely on.
func TestInjectCancelTripsBeforeDisarm(t *testing.T) {
	reset(t)
	if err := Arm("p.cancel", "cancel@1"); err != nil {
		t.Fatal(err)
	}
	c := &armedProbe{name: "p.cancel"}
	if err := InjectCancel("p.cancel", c); !IsCancel(err) {
		t.Fatalf("InjectCancel = %v, want a cancel error", err)
	}
	if c.cancels != 1 || !c.armedAtCancel {
		t.Fatalf("cancels=%d armedAtCancel=%v, want one cancel while still armed", c.cancels, c.armedAtCancel)
	}
	if len(Active()) != 0 {
		t.Fatalf("cancel@1 still armed after firing: %v", Active())
	}
	if err := InjectCancel("p.cancel", c); err != nil || c.cancels != 1 {
		t.Fatalf("disarmed point fired again: err=%v cancels=%d", err, c.cancels)
	}

	// Other kinds, skipped hits and plain Inject never call Cancel.
	ArmPoint("p.err", Point{Kind: KindErr})
	ArmPoint("p.skip", Point{Kind: KindCancel, Skip: 1})
	other := &armedProbe{name: "p.err"}
	InjectCancel("p.err", other)
	InjectCancel("p.skip", other)
	if other.cancels != 0 {
		t.Fatalf("non-firing or non-cancel probes tripped the flag %d times", other.cancels)
	}
	if err := Inject("p.skip"); !IsCancel(err) {
		t.Fatalf("Inject on a cancel point = %v", err)
	}
}

func TestDisarmedInjectCancelNoAllocs(t *testing.T) {
	reset(t)
	c := &armedProbe{name: "nobody.armed.this"}
	if avg := testing.AllocsPerRun(1000, func() { InjectCancel("nobody.armed.this", c) }); avg != 0 {
		t.Fatalf("disarmed InjectCancel allocates %v per call, want 0", avg)
	}
}
