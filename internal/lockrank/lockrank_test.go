package lockrank

import (
	"strings"
	"testing"

	"multics/internal/schedsim"
)

func install(t *testing.T) {
	t.Helper()
	SetLayers([][]string{
		{"t-bottom"},
		{"t-middle"},
		{"t-top"},
	})
}

// onTask runs each body as a task of one deterministic executor, where
// rank checking runs, and fails the test on a panic that escapes one.
func onTask(t *testing.T, bodies ...func()) {
	t.Helper()
	ex := schedsim.New(schedsim.Config{Name: "lockrank", Seed: 1})
	for _, body := range bodies {
		ex.Go("body", body)
	}
	if err := ex.Run(); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Errorf("panic %v, want a lockrank panic containing %q", r, want)
		}
	}()
	fn()
}

func TestDescendingOrderAllowed(t *testing.T) {
	install(t)
	var top, mid, bot Mutex
	top.Init("t-top")
	mid.Init("t-middle")
	bot.Init("t-bottom")

	onTask(t, func() {
		top.Lock()
		mid.Lock()
		bot.Lock()
		bot.Unlock()
		mid.Unlock()
		top.Unlock()
		// Were bot still on the held stack, taking top would ascend and
		// panic.
		top.Lock()
		top.Unlock()
	})
}

func TestAscendingOrderPanics(t *testing.T) {
	install(t)
	var top, bot Mutex
	top.Init("t-top")
	bot.Init("t-bottom")

	onTask(t, func() {
		bot.Lock()
		defer bot.Unlock()
		mustPanic(t, "t-top", func() { top.Lock() })
	})
}

func TestEqualRankPanics(t *testing.T) {
	install(t)
	var a, b Mutex
	a.Init("t-middle")
	b.Init("t-middle")

	onTask(t, func() {
		a.Lock()
		defer a.Unlock()
		mustPanic(t, "t-middle", func() { b.Lock() })
	})
}

func TestSubRanksOrderWithinModule(t *testing.T) {
	install(t)
	var primary, inner Mutex
	primary.InitSub("t-middle", 1)
	inner.InitSub("t-middle", 0)

	onTask(t, func() {
		// Primary first, inner nested below it: legal.
		primary.Lock()
		inner.Lock()
		inner.Unlock()
		primary.Unlock()

		// The other way round is an ascent.
		inner.Lock()
		defer inner.Unlock()
		mustPanic(t, "t-middle#1", func() { primary.Lock() })
	})
}

func TestUnrankedAndUncheckedAreInert(t *testing.T) {
	install(t)
	var zero Mutex // never initialized: plain mutex
	var bot, top Mutex
	bot.Init("t-bottom")
	top.Init("t-top")

	onTask(t, func() {
		bot.Lock()
		zero.Lock()
		zero.Unlock()
		bot.Unlock()

		prev := SetChecking(false)
		defer SetChecking(prev)
		// With checking off the ascent is tolerated (release build).
		bot.Lock()
		top.Lock()
		top.Unlock()
		bot.Unlock()
	})
}

func TestRanksFollowLayers(t *testing.T) {
	install(t)
	var mid Mutex
	mid.InitSub("t-middle", 2)
	if got, want := mid.Rank(), Rank(1*MaxSubs+2); got != want {
		t.Fatalf("rank = %d, want %d", got, want)
	}
	var top, unknown Mutex
	top.Init("t-top")
	if got := top.Rank(); got != Rank(2*MaxSubs) {
		t.Fatalf("t-top rank = %d, want %d", got, 2*MaxSubs)
	}
	unknown.Init("t-unknown")
	if got := unknown.Rank(); got != Unranked {
		t.Fatalf("t-unknown rank = %d, want Unranked", got)
	}

	found := false
	for _, e := range Table() {
		if e.Module == "t-middle" && e.Sub == 2 {
			found = true
			if e.Layer != 1 || e.Rank != Rank(1*MaxSubs+2) {
				t.Fatalf("table entry %+v has wrong layer/rank", e)
			}
		}
	}
	if !found {
		t.Fatal("declared lock missing from Table()")
	}
}

// Eight tasks each take their own top lock over one shared bottom
// lock, interleaved at every acquisition: each task's held stack is
// its own, so no task sees another's locks as held.
func TestConcurrentDisjointTasks(t *testing.T) {
	install(t)
	var bot Mutex
	bot.Init("t-bottom")
	body := func() {
		var top Mutex
		top.Init("t-top")
		for j := 0; j < 200; j++ {
			top.Lock()
			bot.Lock()
			bot.Unlock()
			top.Unlock()
		}
	}
	bodies := make([]func(), 8)
	for i := range bodies {
		bodies[i] = body
	}
	onTask(t, bodies...)
}
