package netsim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"softstate/internal/des"
	"softstate/internal/rand"
)

func detLink(k *des.Kernel, loss float64, delay float64, seed uint64) *Link {
	return NewLink(k, rand.NewSource(seed), Config{
		Loss:  loss,
		Delay: rand.Timer{Kind: rand.Deterministic, Mean: delay},
	})
}

func TestLosslessDelivery(t *testing.T) {
	k := des.New()
	l := detLink(k, 0, 2, 1)
	delivered := 0
	l.Send(func() { delivered++ })
	run(k)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want 1", delivered)
	}
	if k.Now() != 2 {
		t.Fatalf("delivery at %v, want 2", k.Now())
	}
	c := l.Counters()
	if c.Transmissions != 1 || c.Delivered != 1 || c.Lost != 0 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestTotalLoss(t *testing.T) {
	k := des.New()
	l := detLink(k, 1, 2, 1)
	delivered := 0
	for i := 0; i < 10; i++ {
		if lost := l.Send(func() { delivered++ }); !lost {
			t.Fatal("Send with loss=1 reported delivery")
		}
	}
	run(k)
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
	c := l.Counters()
	if c.Lost != 10 || c.Transmissions != 10 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestLossFrequency(t *testing.T) {
	k := des.New()
	l := detLink(k, 0.3, 0.001, 42)
	const n = 50000
	for i := 0; i < n; i++ {
		l.Send(func() {})
	}
	run(k)
	got := float64(l.Counters().Lost) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("loss frequency = %v, want ≈0.3", got)
	}
}

func TestFIFOUnderRandomDelays(t *testing.T) {
	k := des.New()
	l := NewLink(k, rand.NewSource(7), Config{
		Delay: rand.Timer{Kind: rand.Exponential, Mean: 1},
	})
	var order []int
	for i := 0; i < 500; i++ {
		i := i
		// Stagger sends slightly so exponential delays would reorder
		// without the clamp.
		k.Schedule(float64(i)*0.01, func() {
			l.Send(func() { order = append(order, i) })
		})
	}
	run(k)
	if !sort.IntsAreSorted(order) {
		t.Fatal("FIFO link delivered out of order")
	}
	if len(order) != 500 {
		t.Fatalf("delivered %d, want 500", len(order))
	}
}

func TestReorderingAllowedWhenConfigured(t *testing.T) {
	k := des.New()
	l := NewLink(k, rand.NewSource(7), Config{
		Delay:        rand.Timer{Kind: rand.Exponential, Mean: 1},
		AllowReorder: true,
	})
	var order []int
	for i := 0; i < 500; i++ {
		i := i
		k.Schedule(float64(i)*0.01, func() {
			l.Send(func() { order = append(order, i) })
		})
	}
	run(k)
	if sort.IntsAreSorted(order) {
		t.Fatal("expected at least one reordering with exponential delays")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	k := des.New()
	cases := []func(){
		func() { NewLink(nil, rand.NewSource(1), Config{}) },
		func() { NewLink(k, nil, Config{}) },
		func() { NewLink(k, rand.NewSource(1), Config{Loss: -0.1}) },
		func() { NewLink(k, rand.NewSource(1), Config{Loss: 1.1}) },
		func() { detLink(k, 0, 1, 1).Send(nil) },
		func() { NewPath(k, rand.NewSource(1), 0, Config{}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestPairDirectionsIndependent(t *testing.T) {
	k := des.New()
	p := NewPair(k, rand.NewSource(3), Config{
		Loss:  0.5,
		Delay: rand.Timer{Kind: rand.Deterministic, Mean: 1},
	})
	for i := 0; i < 1000; i++ {
		p.Forward.Send(func() {})
		p.Reverse.Send(func() {})
	}
	run(k)
	tot := p.Totals()
	if tot.Transmissions != 2000 {
		t.Fatalf("Transmissions = %d, want 2000", tot.Transmissions)
	}
	if tot.Delivered+tot.Lost != tot.Transmissions {
		t.Fatalf("counters inconsistent: %+v", tot)
	}
	f, r := p.Forward.Counters(), p.Reverse.Counters()
	if f.Lost == 0 || r.Lost == 0 || f.Lost == r.Lost {
		// Equal loss counts would suggest shared streams; with 1000 trials
		// at p=0.5 a tie is vanishingly unlikely (and indicates coupling).
		t.Fatalf("suspicious loss counts: forward=%d reverse=%d", f.Lost, r.Lost)
	}
}

func TestPathConstruction(t *testing.T) {
	k := des.New()
	p := NewPath(k, rand.NewSource(9), 5, Config{
		Delay: rand.Timer{Kind: rand.Deterministic, Mean: 1},
	})
	if len(p.Hops) != 5 {
		t.Fatalf("hops = %d, want 5", len(p.Hops))
	}
	// Relay a message across all hops; with no loss it must arrive after
	// the sum of per-hop delays.
	arrived := false
	var forward func(hop int)
	forward = func(hop int) {
		if hop == len(p.Hops) {
			arrived = true
			return
		}
		p.Hops[hop].Forward.Send(func() { forward(hop + 1) })
	}
	forward(0)
	run(k)
	if !arrived {
		t.Fatal("message did not traverse the path")
	}
	if k.Now() != 5 {
		t.Fatalf("end-to-end delay = %v, want 5", k.Now())
	}
	if p.Totals().Delivered != 5 {
		t.Fatalf("totals = %+v, want 5 deliveries", p.Totals())
	}
}

func TestFIFOPropertyRandomTraffic(t *testing.T) {
	prop := func(seed uint64) bool {
		k := des.New()
		l := NewLink(k, rand.NewSource(seed), Config{
			Loss:  0.2,
			Delay: rand.Timer{Kind: rand.Exponential, Mean: 0.5},
		})
		src := rand.NewSource(seed ^ 0xabcdef)
		var order []int
		next := 0
		var tick func()
		tick = func() {
			if next >= 100 {
				return
			}
			id := next
			next++
			l.Send(func() { order = append(order, id) })
			k.Schedule(src.Exp(0.1), tick)
		}
		tick()
		run(k)
		return sort.IntsAreSorted(order)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// run executes events until the kernel's queue drains.
func run(k *des.Kernel) {
	for k.Step() {
	}
}
