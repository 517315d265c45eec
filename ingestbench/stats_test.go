package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
	orig := []float64{3, 1, 2}
	if got := median(orig); got != 2 || orig[0] != 3 {
		t.Errorf("median = %v (input now %v), want 2 and the input untouched", got, orig)
	}
}

func TestLateFraction(t *testing.T) {
	// Two of four completed frames are late; one failed frame counts as
	// late and offered.
	if got := lateFraction([]float64{1, 150, 100, 101}, 1, 100); got != 3.0/5 {
		t.Errorf("lateFraction = %v, want 0.6", got)
	}
	if got := lateFraction(nil, 0, 100); !math.IsNaN(got) {
		t.Errorf("no frames: %v, want NaN", got)
	}
}

func TestAccountingCheck(t *testing.T) {
	ok := accounting{Sent: 10, Acked: 10, Accepted: 10, Processed: 10}
	if err := ok.check(); err != nil {
		t.Fatalf("clean ledger: %v", err)
	}
	for _, c := range []struct {
		mutate func(*accounting)
		want   string
	}{
		{func(a *accounting) { a.Acked = 9 }, "acked"},
		{func(a *accounting) { a.Dups = 1 }, "duplicate"},
		{func(a *accounting) { a.NackedSeq = 1 }, "sequence"},
		{func(a *accounting) { a.Accepted = 11 }, "accepted"},
		{func(a *accounting) { a.Processed = 9 }, "processed"},
	} {
		a := ok
		c.mutate(&a)
		if err := a.check(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: error %v, want one mentioning %q", a, err, c.want)
		}
	}
}

func TestFalseAlarms(t *testing.T) {
	points := []int{100, 200, 300}
	// 130 is the first after 100 and 210 the first after 200; 150 is a
	// second declaration, 50 precedes every drift point, nothing follows
	// 300 before the end, and 320 lies beyond it.
	decls := []int{50, 130, 150, 210, 320}
	if got := falseAlarms(points, decls, 310); got != 2 {
		t.Errorf("falseAlarms = %d, want 2", got)
	}
	if got := falseAlarms(nil, decls, 1000); got != len(decls) {
		t.Errorf("no drift points: %d false alarms, want %d", got, len(decls))
	}
}

func TestCleanWindows(t *testing.T) {
	ms := int64(time.Millisecond)
	w := int64(window)
	pumps := []pumpRec{
		{start: 10 * ms, end: 12 * ms},                        // no training
		{start: w + 400*ms, end: 2*w + 100*ms, trained: true}, // spans windows 1-2; catch-up in 3
		{start: 4*w + 10*ms, end: 5*w - 10*ms},                // long, but no training
		{start: 6*w + 10*ms, end: 6*w + 11*ms, trained: true}, // beyond the windows
	}
	clean, n := cleanWindows(pumps, 0, 6)
	want := []bool{true, false, false, false, true, true}
	if n != 3 || !reflect.DeepEqual(clean, want) {
		t.Errorf("cleanWindows = %v (%d clean), want %v (3 clean)", clean, n, want)
	}
	// A short training pump dirties its window and the next all the same.
	if clean, n := cleanWindows([]pumpRec{{start: 10 * ms, end: 10*ms + 1, trained: true}}, 0, 3); n != 1 || clean[0] || clean[1] || !clean[2] {
		t.Errorf("short training pump: %v (%d clean), want windows 0-1 dirty", clean, n)
	}
	all := []pumpRec{{start: 0, end: 3 * w, trained: true}}
	if clean, n := cleanWindows(all, 0, 2); n != 0 || !clean[0] || !clean[1] {
		t.Errorf("stalled throughout: %v (%d clean), want every window counted and 0 clean", clean, n)
	}
}
