package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
	"repro/internal/entity"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var b benchFile
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesMetricTables(t *testing.T) {
	b := loadBenchFile(t)
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit {
				t.Errorf("%s[%d]: %s (%s) in BENCHMARK.json, %s (%s) reported", kind, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", m.Name, m.Bound != nil, bounded)
			}
			if bounded && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)

	var setupBound, maxBound float64
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = *m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s is %s/%s", m.Unit, m.Better)
			}
		}
		maxBound = max(maxBound, *m.Bound)
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
}

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q breaks the grammar", m.Name)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("metric %s: unit %q breaks the grammar", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("metric name %q used twice", m.Name)
			}
			seen[m.Name] = true
		}
	}
	for name := range workloads {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("workload name %q breaks the grammar or reuses a metric name", name)
		}
	}
	for _, bad := range []string{"", "-x", "a b", strings.Repeat("a", 65), "lat/us"} {
		if nameRE.MatchString(bad) {
			t.Errorf("grammar accepts %q", bad)
		}
	}
}

func TestEmitReportsFailedChecksAsIncorrect(t *testing.T) {
	out := newOutcome()
	for _, m := range endToEnd {
		out.e2e[m.Name] = 1
	}
	out.attempted = 10
	out.check(false, "balance %d, want %d", 3, 4)
	var buf bytes.Buffer
	if err := emit(&buf, out, false); !errors.Is(err, errCheckFailed) {
		t.Fatalf("emit with a failed check returned %v, want %v", err, errCheckFailed)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted uint64                     `json:"attempted"`
		Failed    uint64                     `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 10 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	delete(out.e2e, "setup_s")
	if err := emit(&buf, out, false); err == nil {
		t.Fatal("a missing end-to-end metric was not an error")
	}
}

// TestDurableCheckCatchesWrongValue runs the durable-write output check
// against a real durable kernel: the fold of the acknowledged writes passes,
// and one deliberately wrong expected value fails it.
func TestDurableCheckCatchesWrongValue(t *testing.T) {
	dir := t.TempDir()
	k, err := repro.Bootstrap(dwOptions(dir), repro.StandardTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	expect := newModel()
	acct := entity.Key{Type: "Account", ID: "a"}
	lead := entity.Key{Type: "Lead", ID: "l"}
	for _, w := range []write{
		{acct, []entity.Op{repro.Delta("balance", 5)}},
		{acct, []entity.Op{repro.Delta("balance", -2)}},
		{lead, []entity.Op{repro.Set("status", "NEW")}},
	} {
		if _, err := k.Update(w.key, w.ops...); err != nil {
			t.Fatal(err)
		}
		expect.apply(w.key, w.ops)
	}
	k.Close()
	k, err = repro.Bootstrap(dwOptions(dir), repro.StandardTypes()...)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	good := newOutcome()
	expect.verify(readFields(k), good)
	if len(good.problems) != 0 {
		t.Fatalf("correct model failed the check: %v", good.problems)
	}
	expect.fields[acct]["balance"] = 4.0
	bad := newOutcome()
	expect.verify(readFields(k), bad)
	if len(bad.problems) == 0 {
		t.Fatal("a wrong expected balance passed the check")
	}
}

func TestWriteFromRequestMatchesUserBytes(t *testing.T) {
	w, err := writeFromRequest("/entities/Account/bank-1", `{"delta":{"balance":-12},"describe":"x"}`)
	if err != nil {
		t.Fatal(err)
	}
	if w.key != (entity.Key{Type: "Account", ID: "bank-1"}) || len(w.ops) != 1 || w.ops[0].Delta != -12 {
		t.Fatalf("write %+v", w)
	}
	if got := userBytes(w.ops); got != len(`{"delta":{"balance":-12}}`) {
		t.Fatalf("userBytes = %d", got)
	}
	if _, err := writeFromRequest("/history/Account/x", `{}`); err == nil {
		t.Fatal("non-entity path accepted")
	}
}

// TestDWStreamMapsE23Submits checks the durable-write mapping of E23's
// stream: reads and queries dropped, CRM orders propagated to an inventory
// reservation, bookstore orders promised, bookstore restocks updates.
func TestDWStreamMapsE23Submits(t *testing.T) {
	s, err := newDWStream(7)
	if err != nil {
		t.Fatal(err)
	}
	var kinds [5]int
	restocks, skipped := 0, 0
	for j := uint64(0); j < 4000; j++ {
		op, ok, err := s.op(j)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			skipped++
			continue
		}
		kinds[op.kind]++
		switch op.kind {
		case kindMulti:
			if len(op.writes) != 2 || op.writes[0].key.Type != "Order" || op.writes[1].key.Type != "Inventory" ||
				op.writes[1].ops[0].Delta != -1 {
				t.Fatalf("arrival %d: order %+v", j, op.writes)
			}
		case kindTentative:
			if w := op.writes[0]; w.key != (entity.Key{Type: "Book", ID: "bestseller"}) || w.ops[0].Delta >= 0 {
				t.Fatalf("arrival %d: tentative %+v", j, w)
			}
		case kindUpdate:
			if op.restock > 0 {
				restocks++
				if op.writes[0].key.Type != "Book" {
					t.Fatalf("arrival %d: restock of %s", j, op.writes[0].key)
				}
			}
		}
	}
	if kinds[kindUpdate] == 0 || kinds[kindMulti] == 0 || kinds[kindTentative] == 0 || restocks == 0 || skipped == 0 {
		t.Fatalf("kinds %v, restocks %d, skipped %d", kinds, restocks, skipped)
	}
	again, _ := newDWStream(7)
	a, _, _ := s.op(1234)
	b, _, _ := again.op(1234)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("the same seed gave different streams")
	}
}

func TestShelfKeepsFirstComeFirstServed(t *testing.T) {
	var s shelf
	for i, qty := range []float64{2, 3, 1} {
		s.promised(promise{id: fmt.Sprint(i), qty: qty})
	}
	// Order 1 does not fit in what is left, so it and order 2 behind it wait.
	if keep := s.restock(4); len(keep) != 1 || keep[0].id != "0" || s.pendingCount() != 2 {
		t.Fatalf("keep %v, %d waiting", keep, s.pendingCount())
	}
	if keep := s.restock(2); len(keep) != 2 || keep[0].id != "1" || keep[1].id != "2" || s.copies != 0 {
		t.Fatalf("keep %v, copies %v", keep, s.copies)
	}
	s.promised(promise{id: "3", qty: 1})
	if brk := s.closeOut(); len(brk) != 1 || brk[0].id != "3" || s.pendingCount() != 0 {
		t.Fatalf("close out %v, %d waiting", brk, s.pendingCount())
	}
}
