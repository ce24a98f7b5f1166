// Package failpoint is a tiny deterministic fault-injection framework:
// named injection points compiled permanently into production code
// paths, armed only in tests, chaos runs, or via the BGPC_FAILPOINTS
// environment variable.
//
// The design constraint is the disarmed cost. Sites sit on paths as hot
// as the parallel runtime's chunk dispatch, so Inject's fast path is a
// single atomic load of a global armed-point counter and no
// allocations; everything else lives behind a non-inlined slow path
// that only runs while at least one point is armed anywhere in the
// process.
//
// A point fires one of four actions:
//
//	panic      – raise a panic carrying the point name (worker-crash
//	             containment testing)
//	delay:DUR  – sleep for DUR (straggler injection; DUR as parsed by
//	             time.ParseDuration)
//	err        – return an error wrapping ErrInjected
//	cancel     – return an error for which IsCancel is true; call sites
//	             with a cooperative cancel flag translate it into a
//	             cancellation instead of an error
//
// Each action takes two optional deterministic filters: "@N" fires at
// most N times and then auto-disarms the point, and "#K" skips the
// first K hits before firing. "pool.beforeRun=panic@1#2" therefore
// panics exactly the third job and no other — the building block of
// reproducible chaos schedules.
//
// The environment/flag grammar is a list of name=action terms joined
// by ";" or ",":
//
//	BGPC_FAILPOINTS='pool.beforeRun=panic@1;par.dispatch=delay:20ms'
//
// Arming, disarming, and firing are safe for concurrent use. State is
// process-global (failpoints exist to fault a whole process), so tests
// that arm points must Reset in cleanup and must not run in parallel
// with other failpoint-using tests in the same package.
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EnvVar is the environment variable ArmFromEnv reads.
const EnvVar = "BGPC_FAILPOINTS"

// Kind enumerates the fault a point raises when it fires.
type Kind int

const (
	// KindPanic raises panic(*Error) at the injection site.
	KindPanic Kind = iota
	// KindDelay sleeps for Point.Delay, then reports no fault.
	KindDelay
	// KindErr returns an *Error wrapping ErrInjected.
	KindErr
	// KindCancel returns an *Error for which IsCancel is true.
	KindCancel
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindErr:
		return "err"
	case KindCancel:
		return "cancel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Point describes an armed failpoint.
type Point struct {
	// Kind selects the action raised when the point fires.
	Kind Kind
	// Delay is the sleep for KindDelay (ignored otherwise).
	Delay time.Duration
	// Times bounds how often the point fires; after Times firings the
	// point auto-disarms. 0 means unlimited.
	Times int
	// Skip suppresses the first Skip hits before the point starts
	// firing, making "fail exactly the Nth hit" schedules expressible.
	Skip int
}

// ErrInjected is the sentinel wrapped by every error a failpoint
// returns; match with errors.Is. Callers exposing injected faults over
// an API should map it to a server-side (5xx) condition: an injected
// fault is never a defect in the client's input.
var ErrInjected = errors.New("failpoint: injected fault")

// Error is the concrete error (and panic value) a firing point raises.
type Error struct {
	// Name is the injection point that fired.
	Name string
	// Kind is the armed action.
	Kind Kind
}

func (e *Error) Error() string {
	return fmt.Sprintf("failpoint %q fired (%s)", e.Name, e.Kind)
}

// Unwrap lets errors.Is(err, ErrInjected) match.
func (e *Error) Unwrap() error { return ErrInjected }

// IsCancel reports whether err is a fired KindCancel failpoint.
func IsCancel(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == KindCancel
}

// registry holds the armed points. armedCount mirrors len(points) so
// the Inject fast path is a single atomic load with no map access; it
// is only written under mu.
var (
	armedCount atomic.Int64

	mu     sync.Mutex
	points = map[string]*state{}
)

type state struct {
	p     Point
	hits  int // call-throughs while armed (including skipped ones)
	fired int // actual firings
}

// Inject probes the named failpoint. Disarmed — the permanent
// production state — it is one atomic load and returns nil. Armed, it
// fires the configured action: KindPanic panics, KindDelay sleeps and
// returns nil, KindErr and KindCancel return an *Error.
func Inject(name string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return injectSlow(name, nil)
}

// Canceler is a cooperative cancel flag a site hands to InjectCancel.
type Canceler interface{ Cancel() }

// InjectCancel is Inject for a site with a cooperative cancel flag.
// When the point fires a cancel action, c.Cancel runs under the
// registry lock, before the firing can auto-disarm the point: no other
// probe can find the point disarmed while c is still untripped, so
// every goroutine that polls c after probing sees the cancel. Disarmed
// it is the same single atomic load as Inject.
func InjectCancel(name string, c Canceler) error {
	if armedCount.Load() == 0 {
		return nil
	}
	return injectSlow(name, c)
}

//go:noinline
func injectSlow(name string, c Canceler) error {
	mu.Lock()
	st, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	st.hits++
	if st.hits <= st.p.Skip {
		mu.Unlock()
		return nil
	}
	st.fired++
	if st.p.Kind == KindCancel && c != nil {
		c.Cancel()
	}
	if st.p.Times > 0 && st.fired >= st.p.Times {
		delete(points, name)
		armedCount.Add(-1)
	}
	p := st.p
	mu.Unlock()

	// Actions run outside the lock so a delay cannot serialize other
	// points, and a panicking site cannot leave the registry locked.
	switch p.Kind {
	case KindPanic:
		panic(&Error{Name: name, Kind: KindPanic})
	case KindDelay:
		time.Sleep(p.Delay)
		return nil
	case KindCancel:
		return &Error{Name: name, Kind: KindCancel}
	default:
		return &Error{Name: name, Kind: KindErr}
	}
}

// ArmPoint arms (or re-arms) the named failpoint with p, resetting its
// hit and fire counts.
func ArmPoint(name string, p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; !ok {
		armedCount.Add(1)
	}
	points[name] = &state{p: p}
}

// Arm parses a single action spec — "panic", "delay:20ms", "err",
// "cancel", each optionally suffixed with "@N" (times) and "#K" (skip)
// — and arms the named point with it.
func Arm(name, spec string) error {
	p, err := parseAction(spec)
	if err != nil {
		return fmt.Errorf("failpoint %q: %w", name, err)
	}
	ArmPoint(name, p)
	return nil
}

// Disarm removes the named point; unknown names are a no-op.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := points[name]; ok {
		delete(points, name)
		armedCount.Add(-1)
	}
}

// Reset disarms every point. Tests that arm failpoints must call it in
// cleanup.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for name := range points {
		delete(points, name)
	}
	armedCount.Store(0)
}

// Hits reports how many times the named point has been probed while
// armed (including skipped hits); 0 for unknown or auto-disarmed
// points' current registration.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if st, ok := points[name]; ok {
		return st.hits
	}
	return 0
}

// Active returns the currently armed point names, sorted — startup
// logging for daemons that arm schedules from flags or environment.
func Active() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(points))
	for name := range points {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ArmFromSpec arms every "name=action" term in a ";" or ","-separated
// schedule. Terms are applied left to right; a later term re-arms an
// earlier name. Empty terms are ignored, so trailing separators are
// harmless.
func ArmFromSpec(spec string) error {
	for _, term := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		name, action, ok := strings.Cut(term, "=")
		if !ok || name == "" {
			return fmt.Errorf("failpoint: bad term %q (want name=action)", term)
		}
		if err := Arm(strings.TrimSpace(name), strings.TrimSpace(action)); err != nil {
			return err
		}
	}
	return nil
}

// ArmFromEnv arms the schedule in $BGPC_FAILPOINTS, if set.
func ArmFromEnv() error {
	if spec := os.Getenv(EnvVar); spec != "" {
		return ArmFromSpec(spec)
	}
	return nil
}

// parseAction parses "kind[:arg][@times][#skip]".
func parseAction(spec string) (Point, error) {
	var p Point
	rest := spec
	if body, skip, ok := strings.Cut(rest, "#"); ok {
		n, err := strconv.Atoi(skip)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad skip count %q", skip)
		}
		p.Skip = n
		rest = body
	}
	if body, times, ok := strings.Cut(rest, "@"); ok {
		n, err := strconv.Atoi(times)
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad fire count %q", times)
		}
		p.Times = n
		rest = body
	}
	kind, arg, hasArg := strings.Cut(rest, ":")
	switch kind {
	case "panic":
		p.Kind = KindPanic
	case "err", "error":
		p.Kind = KindErr
	case "cancel":
		p.Kind = KindCancel
	case "delay", "sleep":
		p.Kind = KindDelay
		if !hasArg {
			return p, errors.New(`delay needs a duration ("delay:20ms")`)
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return p, fmt.Errorf("bad delay duration %q", arg)
		}
		p.Delay = d
		return p, nil
	default:
		return p, fmt.Errorf("unknown action %q (want panic, delay:DUR, err, or cancel)", kind)
	}
	if hasArg {
		return p, fmt.Errorf("action %q takes no argument, got %q", kind, arg)
	}
	return p, nil
}
