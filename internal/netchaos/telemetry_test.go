package netchaos

import (
	"testing"

	"pcstall/internal/metricdoc"
	"pcstall/internal/telemetry"
)

// TestMetricInventory: the netchaos_* series a published engine
// registers mirror its Stats, are documented in DESIGN.md's netchaos_
// row, and cover every documented name.
func TestMetricInventory(t *testing.T) {
	e := NewEngine(Level(0.5, 3))
	reg := telemetry.New()
	e.Publish(reg)
	for i := 0; i < 200; i++ {
		e.Plan()
	}
	st := e.Stats()
	c := reg.Snapshot().Counters
	if c["netchaos_exchanges_total"] != st.Exchanges || c["netchaos_faults_total"] != st.Injected() {
		t.Errorf("counters %+v do not mirror stats %+v", c, st)
	}
	for class, n := range map[Class]int64{
		ClassRefuse: st.Refused, ClassReset: st.Reset, Class5xx: st.Injected5xx, Class429: st.Injected429,
		ClassStall: st.Stalled, ClassTruncate: st.Truncated, ClassFlip: st.Flipped, ClassDup: st.Duplicated,
	} {
		if got := c["netchaos_fault_"+string(class)+"_total"]; got != n {
			t.Errorf("netchaos_fault_%s_total = %d, stats say %d", class, got, n)
		}
	}
	problems, err := metricdoc.Check("../../DESIGN.md", "netchaos_", reg.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}
