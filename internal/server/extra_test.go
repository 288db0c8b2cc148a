package server

import (
	"math"
	"testing"

	"rtoffload/internal/rtime"
	"rtoffload/internal/stats"
)

func TestGilbertValidate(t *testing.T) {
	good := GilbertConfig{
		GoodDuration: rtime.Second, BadDuration: rtime.Second,
		GoodLatency: ms(10), BadLatency: ms(100),
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, m := range []func(*GilbertConfig){
		func(c *GilbertConfig) { c.GoodDuration = 0 },
		func(c *GilbertConfig) { c.BadDuration = 0 },
		func(c *GilbertConfig) { c.GoodLatency = 0 },
		func(c *GilbertConfig) { c.BadLatency = 0 },
		func(c *GilbertConfig) { c.Sigma = -1 },
		func(c *GilbertConfig) { c.BadLossProbability = 2 },
	} {
		c := good
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
		if _, err := NewGilbert(stats.NewRNG(1), c); err == nil {
			t.Errorf("NewGilbert accepted mutation %d", i)
		}
	}
}

func TestGilbertBursts(t *testing.T) {
	cfg := GilbertConfig{
		GoodDuration: rtime.Second, BadDuration: rtime.FromMillis(500),
		GoodLatency: ms(10), BadLatency: ms(200),
	}
	g, err := NewGilbert(stats.NewRNG(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sample every 20ms over 60 simulated seconds: both regimes appear,
	// and their time shares approximate 2:1.
	fast, slow := 0, 0
	at := rtime.Instant(0)
	for i := 0; i < 3000; i++ {
		resp := g.Respond(at, 1, 0)
		if !resp.Arrives {
			t.Fatal("loss without loss probability")
		}
		switch resp.Latency {
		case ms(10):
			fast++
		case ms(200):
			slow++
		default:
			t.Fatalf("unexpected latency %v", resp.Latency)
		}
		at = at.Add(ms(20))
	}
	if fast == 0 || slow == 0 {
		t.Fatalf("regimes not both visited: fast=%d slow=%d", fast, slow)
	}
	frac := float64(fast) / float64(fast+slow)
	if math.Abs(frac-2.0/3) > 0.12 {
		t.Fatalf("good-state share %g, want ≈0.67", frac)
	}
	// Burstiness: consecutive samples should correlate — count regime
	// switches; with 1s/0.5s sojourns and 20ms sampling, far fewer
	// switches than samples.
	g2, _ := NewGilbert(stats.NewRNG(3), cfg)
	switches := 0
	prevBad := false
	at = 0
	for i := 0; i < 3000; i++ {
		bad := g2.Bad(at)
		if i > 0 && bad != prevBad {
			switches++
		}
		prevBad = bad
		at = at.Add(ms(20))
	}
	if switches > 300 {
		t.Fatalf("%d regime switches in 3000 samples — not bursty", switches)
	}
}

func TestGilbertLossOnlyInBadState(t *testing.T) {
	cfg := GilbertConfig{
		GoodDuration: rtime.FromMillis(100), BadDuration: rtime.FromMillis(100),
		GoodLatency: ms(10), BadLatency: ms(200),
		BadLossProbability: 1,
	}
	g, err := NewGilbert(stats.NewRNG(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	at := rtime.Instant(0)
	losses, goods := 0, 0
	for i := 0; i < 2000; i++ {
		resp := g.Respond(at, 1, 0)
		if !resp.Arrives {
			losses++
		} else if resp.Latency == ms(10) {
			goods++
		} else {
			t.Fatalf("bad-state response arrived despite loss probability 1: %+v", resp)
		}
		at = at.Add(ms(7))
	}
	if losses == 0 || goods == 0 {
		t.Fatalf("degenerate: losses=%d goods=%d", losses, goods)
	}
}

func TestGilbertLogNormalLatency(t *testing.T) {
	cfg := GilbertConfig{
		GoodDuration: rtime.Second, BadDuration: rtime.FromMillis(1),
		GoodLatency: ms(50), BadLatency: ms(100),
		Sigma: 0.5,
	}
	g, err := NewGilbert(stats.NewRNG(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	n := 5000
	at := rtime.Instant(0)
	for i := 0; i < n; i++ {
		resp := g.Respond(at, 1, 0)
		sum += resp.Latency.Seconds()
		at = at.Add(1) // stay inside the long good state mostly
	}
	// LogNormal with mean-compensated mu: average ≈ 50ms (mixed with
	// rare bad-state samples).
	if mean := sum / float64(n); math.Abs(mean-0.05) > 0.02 {
		t.Fatalf("mean latency %gs, want ≈0.05", mean)
	}
}

func TestBounded(t *testing.T) {
	b := Bounded{Inner: Fixed{Lost: true}, Bound: ms(40)}
	resp := b.Respond(0, 1, 0)
	if !resp.Arrives || resp.Latency != ms(40) {
		t.Fatalf("lost response not bounded: %+v", resp)
	}
	b = Bounded{Inner: Fixed{Latency: ms(100)}, Bound: ms(40)}
	if resp := b.Respond(0, 1, 0); resp.Latency != ms(40) {
		t.Fatalf("late response not clamped: %+v", resp)
	}
	b = Bounded{Inner: Fixed{Latency: ms(10)}, Bound: ms(40)}
	if resp := b.Respond(0, 1, 0); resp.Latency != ms(10) {
		t.Fatalf("fast response altered: %+v", resp)
	}
}
