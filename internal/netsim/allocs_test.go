//go:build !race

// The allocation gates of the receive path live apart from the other
// tests because the race detector instruments allocation; CI runs them
// by name (step "engine core and record door allocate nothing"). Each
// runs after a warm-up, on a full head-mode log, with a payload boxed
// once by the caller: a steady-state hop reuses its message record and
// its NetMsg thread and allocates nothing.

package netsim

import (
	"testing"

	"hades/internal/monitor"
	"hades/internal/simkern"
)

func gate(t *testing.T, what string, cycle func()) {
	t.Helper()
	for i := 0; i < 100; i++ {
		cycle() // warm-up: free lists, event heap and IRQ queue reach size
	}
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("%s: %v allocs per run, want 0", what, n)
	}
}

// fullNodes is twoNodes on a head-mode log whose window is already full.
func fullNodes() (*simkern.Engine, *Network) {
	log := monitor.NewLog(1)
	log.Recordf(0, monitor.KindActivation, 0, "first", "")
	eng := simkern.NewEngine(log, 11)
	eng.AddProcessor("n0", 10*us)
	eng.AddProcessor("n1", 10*us)
	n := New(eng, DefaultConfig())
	n.Connect(0, 1, 100*us, 300*us)
	return eng, n
}

func TestAllocsSendDeliver(t *testing.T) {
	eng, n := fullNodes()
	got := 0
	n.Bind(1, "app", func(*Message) { got++ })
	var payload any = 1 << 20
	gate(t, "Send -> deliver", func() {
		if _, err := n.Send(0, 1, "app", payload, 8); err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle()
	})
	if got == 0 || n.Stats().Delivered != got {
		t.Fatalf("%d handled, %d delivered", got, n.Stats().Delivered)
	}
}

func TestAllocsDroppedSend(t *testing.T) {
	eng, n := fullNodes()
	n.Bind(1, "app", func(*Message) { t.Fatal("delivered to a crashed node") })
	n.SetNodeDown(1, true)
	var payload any = 1 << 20
	gate(t, "dropped Send", func() {
		if _, err := n.Send(0, 1, "app", payload, 8); err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle()
	})
	if n.Stats().Dropped == 0 {
		t.Fatal("nothing dropped")
	}
}

func TestAllocsLocal(t *testing.T) {
	_, n := fullNodes()
	got := 0
	n.Bind(1, "app", func(*Message) { got++ })
	var payload any = 1 << 20
	gate(t, "Local hop", func() {
		if !n.Local(1, 1, "app", payload, 8) {
			t.Fatal("no handler")
		}
	})
	if got == 0 {
		t.Fatal("handler not reached")
	}
}

// TestAllocsLocalAfter: a delayed local hop rides a recycled record armed
// as its own event, so it costs nothing either.
func TestAllocsLocalAfter(t *testing.T) {
	eng, n := fullNodes()
	got := 0
	n.Bind(1, "app", func(*Message) { got++ })
	var payload any = 1 << 20
	gate(t, "delayed Local hop", func() {
		n.LocalAfter(10*us, 1, 1, "app", payload, 8)
		eng.RunUntilIdle()
	})
	if got == 0 {
		t.Fatal("handler not reached")
	}
}
