package main

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestReferenceSourceIsFixedAndParses(t *testing.T) {
	src := refSource()
	if len(src) < 100_000 {
		t.Errorf("reference source is %d bytes", len(src))
	}
	if _, err := parser.ParseFile(token.NewFileSet(), "ref.go", src, parser.ParseComments); err != nil {
		t.Fatal(err)
	}
	if &refSource()[0] != &src[0] {
		t.Error("reference source regenerated")
	}
}

func TestSpeedOf(t *testing.T) {
	if s := speedOf(refNominalS, refNominalS); !near(s, 1) {
		t.Errorf("nominal machine has speed %v", s)
	}
	if s := speedOf(1.2*refNominalS, 1.3*refNominalS); !near(s, 0.8) {
		t.Errorf("a reference job a quarter slower gives speed %v, want 0.8", s)
	}
}

func TestCalibratedWall(t *testing.T) {
	cases := []struct{ wall, busy, speed, want float64 }{
		{3, 1, 0.8, 2.4}, // CPU-bound throughout: all of it scales
		{3, 0, 0.8, 3},   // asleep throughout: none of it does
		{2.75, 0.4, 0.7, 2.75 * (0.6 + 0.4*0.7)},
		{3, 1, 1, 3},
	}
	for _, c := range cases {
		if got := calibratedWall(c.wall, c.busy, c.speed); !near(got, c.want) {
			t.Errorf("calibratedWall(%v, %v, %v) = %v, want %v", c.wall, c.busy, c.speed, got, c.want)
		}
	}
}

func TestParseRunnable(t *testing.T) {
	cases := []struct {
		in   string
		want int
		ok   bool
	}{
		{"0.52 0.41 0.30 3/120 4567\n", 3, true},
		{"1.03 1.69 1.42 1/85 31372", 1, true},
		{"", 0, false},
		{"garbage", 0, false},
	}
	for _, c := range cases {
		got, ok := parseRunnable(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("parseRunnable(%q) = %d, %v", c.in, got, ok)
		}
	}
}

func TestBusyMeterStopsOnce(t *testing.T) {
	m := startBusyMeter()
	a := m.share()
	if b := m.share(); a != b || a < 0 || a > 1 {
		t.Errorf("shares %v then %v", a, b)
	}
}
