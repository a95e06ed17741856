package main

import (
	"bufio"
	"encoding/json"
	"os"
	"testing"
)

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "beat", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50}, // overlaps a: parallel work, counted once
		{ID: 4, Parent: 1, Name: "c", Start: 60, End: 70},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 130}, // clipped to the parent's end
		{ID: 6, Parent: 3, Name: "grandchild", Start: 25, End: 45},
		{ID: 7, Name: "leaf", Start: 200, End: 205},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{
		1: 100 - (40 + 10 + 10), // [10,50] ∪ [60,70] ∪ [90,100]
		2: 20,
		3: 30 - 20, // minus the grandchild
		4: 10,
		5: 40,
		6: 20,
		7: 5,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestRecorderTotalsSelfAndFile(t *testing.T) {
	r := newRecorder()
	beat := r.newID()
	r.add("phase", beat, 7, 0, 40)
	r.add("phase", beat, 7, 40, 90)
	r.addWithID(beat, "beat", 0, 7, 0, 100)
	if ns, n := r.total("phase"); ns != 90 || n != 2 {
		t.Fatalf("total(phase) = %d ns over %d spans, want 90 over 2", ns, n)
	}
	self := r.selfByName()
	if self["beat"] != 10 || self["phase"] != 90 {
		t.Fatalf("self by name = %v, want beat 10, phase 90", self)
	}
	dir := t.TempDir()
	path, err := r.write(dir, "unit")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 3 || got[2].Name != "beat" || got[0].Parent != beat || got[0].Trace != 7 {
		t.Fatalf("spans read back = %+v", got)
	}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *recorder
	if r.now() != 0 || r.newID() != 0 || r.add("x", 0, 0, 1, 2) != 0 {
		t.Fatal("nil recorder returned non-zero values")
	}
	if ns, n := r.total("x"); ns != 0 || n != 0 {
		t.Fatal("nil recorder has totals")
	}
	if path, err := r.write(t.TempDir(), "w"); path != "" || err != nil {
		t.Fatalf("nil recorder wrote %q, %v", path, err)
	}
}

func TestRecorderCapsStorageButNotTotals(t *testing.T) {
	r := newRecorder()
	for i := 0; i < maxStoredSpans+10; i++ {
		r.add("s", 0, 0, 0, 1)
	}
	if len(r.spans) != maxStoredSpans || r.dropped != 10 {
		t.Fatalf("stored %d dropped %d, want %d and 10", len(r.spans), r.dropped, maxStoredSpans)
	}
	if ns, n := r.total("s"); n != maxStoredSpans+10 || ns != n {
		t.Fatalf("totals %d ns / %d spans, want both %d", ns, n, maxStoredSpans+10)
	}
}
