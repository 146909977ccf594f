package faults

import (
	"testing"
	"time"

	"correctables/internal/netsim"
)

// TestComposedPartitionLifetimesIndependent is the regression test for the
// cross-track heal hazard: with untagged events, a short partition window
// in one track would heal a longer window opened earlier by another track
// (Heal ends the oldest). Compose rewrites every pair to unique IDs, so
// each track's heal ends exactly its own partition.
func TestComposedPartitionLifetimesIndependent(t *testing.T) {
	u := 10 * time.Millisecond
	long := Track{Name: "long", Schedule: NewSchedule().
		At(1*u, Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.IRL}, {netsim.VRG}}}).
		At(10*u, Heal{})}
	short := Track{Name: "short", Schedule: NewSchedule().
		At(2*u, Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}}).
		At(3*u, Heal{})}

	clock, _, inj := newFabric(t)
	sched := Compose(long, short)
	for _, te := range sched.Events() {
		ev := te.Event
		clock.RunAt(te.At, func() { inj.Apply(ev) })
	}

	// At 4u the short track has healed; the long track's partition must
	// still be in force (the untagged semantics would have healed it at 3u).
	// IRL<->VRG is severed only by the long track, FRK<->IRL only by the
	// short one.
	clock.RunAt(4*u, func() {
		if !inj.Partitioned(netsim.IRL, netsim.VRG) {
			t.Error("long track's partition healed by short track's heal")
		}
		if inj.Partitioned(netsim.FRK, netsim.IRL) {
			t.Error("short track's partition still in force after its heal")
		}
	})
	clock.RunAt(11*u, func() {
		if inj.Partitioned(netsim.IRL, netsim.VRG) {
			t.Error("long track's partition survives its own heal")
		}
	})
	clock.Drain()
}

// TestComposeDeterministicAndFIFOWithinTrack: composing the same tracks
// twice yields identical schedules, untagged heals pair FIFO within their
// own track, and a surplus untagged heal is dropped rather than healing a
// neighbour track.
func TestComposeDeterministicAndFIFOWithinTrack(t *testing.T) {
	mk := func() []Track {
		return []Track{
			{Name: "a", Schedule: NewSchedule().
				At(1*time.Second, Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}}).
				At(2*time.Second, Partition{Groups: [][]netsim.Region{{netsim.IRL}, {netsim.FRK, netsim.VRG}}}).
				At(3*time.Second, Heal{}).
				At(4*time.Second, Heal{})},
			{Name: "b", Schedule: NewSchedule().
				At(2500*time.Millisecond, Heal{}). // surplus: no open partition in track b
				At(5*time.Second, Crash{Region: netsim.VRG}).
				At(6*time.Second, Restart{Region: netsim.VRG})},
		}
	}
	s1, s2 := Compose(mk()...), Compose(mk()...)
	if s1.String() != s2.String() {
		t.Fatalf("Compose not deterministic:\n%s\nvs\n%s", s1, s2)
	}

	evs := s1.Events()
	var ids []int
	heals := make(map[int]bool)
	for _, te := range evs {
		switch ev := te.Event.(type) {
		case Partition:
			if ev.ID == 0 {
				t.Errorf("composed partition at %v left untagged", te.At)
			}
			ids = append(ids, ev.ID)
		case Heal:
			if heals[ev.ID] {
				t.Errorf("two heals share ID %d", ev.ID)
			}
			heals[ev.ID] = true
		}
	}
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Fatalf("composed partition IDs = %v, want two distinct", ids)
	}
	// FIFO pairing: the 3s heal carries the 1s partition's ID, the 4s heal
	// the 2s partition's; track b's surplus heal is gone.
	if got := len(heals); got != 2 {
		t.Fatalf("composed schedule has %d heals, want 2 (surplus dropped)", got)
	}
	for i, te := range evs {
		if h, ok := te.Event.(Heal); ok {
			want := ids[0]
			if te.At == 4*time.Second {
				want = ids[1]
			}
			if h.ID != want {
				t.Errorf("event %d: heal at %v has ID %d, want %d (FIFO within track)", i, te.At, h.ID, want)
			}
		}
	}
}

// TestRandomTracksDeterministicAndComposable: RandomTracks is a pure
// function of (seed, profiles), distinct seeds give distinct schedules, and
// the composed product stays within the horizon with crash/restart pairing
// intact.
func TestRandomTracksDeterministicAndComposable(t *testing.T) {
	u := 100 * time.Millisecond
	for _, name := range []string{"tracks-mild", "tracks-harsh"} {
		profs, err := ProfilesByName(name, u)
		if err != nil {
			t.Fatalf("ProfilesByName(%s): %v", name, err)
		}
		if len(profs) < 2 {
			t.Fatalf("%s resolves to %d tracks, want >= 2", name, len(profs))
		}
		a := Compose(RandomTracks(7, profs)...)
		b := Compose(RandomTracks(7, profs)...)
		if a.String() != b.String() {
			t.Fatalf("%s seed 7 not deterministic", name)
		}
		if c := Compose(RandomTracks(8, profs)...); a.String() == c.String() && len(a.Events()) > 0 {
			t.Errorf("%s seeds 7 and 8 compose to identical schedules", name)
		}
		if got := a.UnmatchedCrashes(); len(got) != 0 {
			t.Errorf("%s seed 7 leaves %v crashed", name, got)
		}
		if h := a.Horizon(); h > 20*u {
			t.Errorf("%s seed 7 horizon %v beyond profile horizon %v", name, h, 20*u)
		}
	}
	if _, err := ProfilesByName("no-such", u); err == nil {
		t.Error("ProfilesByName accepts unknown name")
	}
}

// TestAtomsPairingAndFlattening: atoms pair partition/heal (by ID and FIFO)
// and crash/restart, singletons stay alone, and flattening the atoms
// reproduces the schedule's event multiset.
func TestAtomsPairingAndFlattening(t *testing.T) {
	s := NewSchedule().
		At(1*time.Second, Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL}}, ID: 7}).
		At(2*time.Second, Crash{Region: netsim.VRG}).
		At(3*time.Second, Drop{From: netsim.IRL, Prob: 0.2, Duration: time.Second}).
		At(4*time.Second, Heal{ID: 7}).
		At(5*time.Second, Restart{Region: netsim.VRG}).
		At(6*time.Second, LatencySpike{From: netsim.FRK, Factor: 4, Duration: time.Second})
	atoms := s.Atoms()
	if len(atoms) != 4 {
		t.Fatalf("got %d atoms, want 4: %v", len(atoms), atoms)
	}
	for i, want := range []int{2, 2, 1, 1} {
		if len(atoms[i]) != want {
			t.Errorf("atom %d has %d events, want %d", i, len(atoms[i]), want)
		}
	}
	total := 0
	rebuilt := NewSchedule()
	for _, a := range atoms {
		for _, te := range a {
			rebuilt.At(te.At, te.Event)
			total++
		}
	}
	if total != len(s.Events()) {
		t.Fatalf("atoms flatten to %d events, want %d", total, len(s.Events()))
	}
	if rebuilt.String() != s.String() {
		t.Fatalf("flattened atoms differ from schedule:\n%s\nvs\n%s", rebuilt, s)
	}
}

// TestTrackJSONRoundTrip: every event kind survives the wire form.
func TestTrackJSONRoundTrip(t *testing.T) {
	tr := Track{Name: "all-kinds", Schedule: NewSchedule().
		At(1*time.Second, Partition{Groups: [][]netsim.Region{{netsim.FRK, netsim.IRL}, {netsim.VRG}}, ID: 3}).
		At(2*time.Second, Heal{ID: 3}).
		At(3*time.Second, Crash{Region: netsim.VRG}).
		At(4*time.Second, Restart{Region: netsim.VRG}).
		At(5*time.Second, LatencySpike{From: netsim.IRL, To: netsim.VRG, Factor: 8, Duration: 2 * time.Second}).
		At(6*time.Second, Drop{From: netsim.VRG, Prob: 0.25, Duration: time.Second})}
	tj, err := MarshalTrack(tr)
	if err != nil {
		t.Fatalf("MarshalTrack: %v", err)
	}
	back, err := UnmarshalTrack(tj)
	if err != nil {
		t.Fatalf("UnmarshalTrack: %v", err)
	}
	if back.Name != tr.Name || back.Schedule.String() != tr.Schedule.String() {
		t.Fatalf("round trip changed track:\n%s\nvs\n%s", back.Schedule, tr.Schedule)
	}
	// IDs survive too (String does not render them).
	if p, ok := back.Schedule.Events()[0].Event.(Partition); !ok || p.ID != 3 {
		t.Fatalf("partition ID lost in round trip: %+v", back.Schedule.Events()[0].Event)
	}
	if _, err := unmarshalEvent(EventJSON{Kind: "nope"}); err == nil {
		t.Error("unmarshalEvent accepts unknown kind")
	}
}

// TestHealByIDAndFaulted: a tagged heal ends exactly its partition, and
// Faulted tracks the union of active fault kinds.
func TestHealByIDAndFaulted(t *testing.T) {
	_, _, inj := newFabric(t)
	if inj.Faulted() {
		t.Fatal("fresh injector reports Faulted")
	}
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.FRK}, {netsim.IRL, netsim.VRG}}, ID: 1})
	inj.Apply(Partition{Groups: [][]netsim.Region{{netsim.VRG}, {netsim.FRK, netsim.IRL}}, ID: 2})
	if !inj.Faulted() {
		t.Error("Faulted false with two partitions active")
	}
	// Heal ID 2 ends the *newer* partition; the older stays.
	inj.Apply(Heal{ID: 2})
	if !inj.Partitioned(netsim.FRK, netsim.IRL) {
		t.Error("heal ID 2 ended partition 1")
	}
	if inj.Partitioned(netsim.IRL, netsim.VRG) {
		t.Error("partition 2 survives its tagged heal")
	}
	inj.Apply(Heal{ID: 99}) // unknown ID: no-op
	if !inj.Partitioned(netsim.FRK, netsim.IRL) {
		t.Error("unknown-ID heal ended partition 1")
	}
	inj.Apply(Heal{ID: 1})
	if inj.Faulted() {
		t.Error("Faulted true after all partitions healed")
	}
	inj.Apply(Crash{Region: netsim.VRG})
	if !inj.Faulted() {
		t.Error("Faulted false with VRG down")
	}
	inj.Apply(Restart{Region: netsim.VRG})
	if inj.Faulted() {
		t.Error("Faulted true after restart")
	}
}
