package mining

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// goldenV3 is testdata/v3-golden.json: the contract and content of the
// committed state payloads. Each testdata/v3-<scheme>.gob is one saved
// v3 state of a saved_shards-shard counter fed the perturbed records of
// buildSkewedDB(t, 1500, 4242) (perturbation seed 4243, the liveSchemes
// generators), with N and the supports of itemsets recorded at the same
// time. testdata/v4-gamma.gob is the same gamma counter saved in version
// 4 with one dense histogram per attribute subset (Hists), the form gamma
// shards were saved in before they were saved as joint cells. The
// payloads are never regenerated: they pin the formats that FileStore
// checkpoints on disk carry.
type goldenV3 struct {
	Schema      string              `json:"schema"`
	Attrs       []dataset.Attribute `json:"attrs"`
	Gamma       float64             `json:"gamma"`
	SavedShards int                 `json:"saved_shards"`
	Itemsets    [][][2]int          `json:"itemsets"`
	Fixtures    []struct {
		Scheme   string    `json:"scheme"`
		File     string    `json:"file"`
		Version  int       `json:"version"`
		N        int       `json:"n"`
		Supports []float64 `json:"supports"`
	} `json:"fixtures"`
}

func loadGoldenV3(t *testing.T) (goldenV3, *dataset.Schema, []Itemset) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "v3-golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenV3
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	schema, err := dataset.NewSchema(g.Schema, g.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	probes := make([]Itemset, len(g.Itemsets))
	for i, items := range g.Itemsets {
		probes[i] = Itemset{}
		for _, it := range items {
			probes[i] = append(probes[i], Item{Attr: it[0], Value: it[1]})
		}
	}
	return g, schema, probes
}

// TestStateGoldenV3Decodes: every committed payload is in the version
// its fixture names, and decodes with LoadLiveCounter at shard counts
// other than the saved one, to exactly the recorded N and to the
// recorded supports within 1e-9. Every scheme has a v3 fixture; a
// fixture of another version runs as <scheme>-v<version>.
func TestStateGoldenV3Decodes(t *testing.T) {
	g, schema, probes := loadGoldenV3(t)
	v3 := map[string]bool{}
	for _, fx := range g.Fixtures {
		v3[fx.Scheme] = v3[fx.Scheme] || fx.Version == legacyStateVersion
	}
	for _, name := range SchemeNames() {
		if !v3[name] {
			t.Fatalf("no v3 fixture for scheme %q", name)
		}
	}
	for _, fx := range g.Fixtures {
		name := fx.Scheme
		if fx.Version != legacyStateVersion {
			name = fmt.Sprintf("%s-v%d", fx.Scheme, fx.Version)
		}
		t.Run(name, func(t *testing.T) {
			scheme, err := SchemeForContract(fx.Scheme, schema, g.Gamma)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := os.ReadFile(filepath.Join("testdata", fx.File))
			if err != nil {
				t.Fatal(err)
			}
			var header struct{ Version int }
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&header); err != nil {
				t.Fatal(err)
			}
			if header.Version != fx.Version {
				t.Fatalf("%s is a version %d state, fixture says %d", fx.File, header.Version, fx.Version)
			}
			for _, shards := range []int{1, g.SavedShards - 1, g.SavedShards + 3} {
				c, err := LoadLiveCounter(bytes.NewReader(payload), scheme, shards)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				if c.N() != fx.N {
					t.Fatalf("shards=%d: N=%d, want %d", shards, c.N(), fx.N)
				}
				got, err := c.Supports(probes)
				if err != nil {
					t.Fatal(err)
				}
				for i, want := range fx.Supports {
					if math.Abs(got[i]-want) > 1e-9 {
						t.Errorf("shards=%d %s: support %v, want %v", shards, probes[i].Key(), got[i], want)
					}
				}
			}
		})
	}
}

// TestStateRejectsPreV3Versions: the version-1 (one gamma counter) and
// version-2 (per-shard gamma) layouts are no longer readable. A
// well-formed header of either is a contract error naming the version,
// not corruption.
func TestStateRejectsPreV3Versions(t *testing.T) {
	g, schema, _ := loadGoldenV3(t)
	scheme, err := SchemeForContract(SchemeGamma, schema, g.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	m := scheme.(*GammaScheme).Matrix()
	type v1State struct {
		Version                int
		SchemaName             string
		M, DomainSize, MatrixN int
		MatrixDiag, MatrixOff  float64
		N                      int
		Hists                  [][]float64
	}
	type v2Shard struct {
		N     int
		Hists [][]float64
	}
	type v2State struct {
		Version                int
		SchemaName             string
		M, DomainSize, MatrixN int
		MatrixDiag, MatrixOff  float64
		Shards                 []v2Shard
	}
	headers := map[int]any{
		1: v1State{Version: 1, SchemaName: schema.Name, M: schema.M(), DomainSize: schema.DomainSize(),
			MatrixN: m.N, MatrixDiag: m.Diag, MatrixOff: m.Off},
		2: v2State{Version: 2, SchemaName: schema.Name, M: schema.M(), DomainSize: schema.DomainSize(),
			MatrixN: m.N, MatrixDiag: m.Diag, MatrixOff: m.Off, Shards: []v2Shard{{}}},
	}
	for version, header := range headers {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(header); err != nil {
			t.Fatal(err)
		}
		_, err := LoadLiveCounter(&buf, scheme, 1)
		if !errors.Is(err, ErrMining) || errors.Is(err, ErrCorruptState) {
			t.Fatalf("v%d header: error %v, want a non-corruption ErrMining", version, err)
		}
		if want := fmt.Sprintf("unsupported counter state version %d", version); !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d header: error %q does not name the version (%q)", version, err, want)
		}
	}
}

// TestStateGoldenV4GammaHists: a legacy gamma shard of subset histograms
// loads from its top (joint) histogram only while it keeps every check:
// non-negative cells, each subset totalling N, and each subset equal to
// the derivation of the joint. A state the current writer saves carries
// joint cells and no histograms, and round-trips.
func TestStateGoldenV4GammaHists(t *testing.T) {
	g, schema, probes := loadGoldenV3(t)
	scheme, err := SchemeForContract(SchemeGamma, schema, g.Gamma)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := os.ReadFile(filepath.Join("testdata", "v4-gamma.gob"))
	if err != nil {
		t.Fatal(err)
	}
	load := func(edit func(hists [][]float64)) (*ShardedCounter, error) {
		st, err := decodeState(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		edit(st.Shards[0].Hists)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return LoadLiveCounter(&buf, scheme, 2)
	}
	top := 1<<schema.M() - 1
	cases := []struct {
		name, want string
		edit       func(hists [][]float64)
	}{
		// Subset 1 keeps its total and its cells stay non-negative, but
		// it no longer projects the joint.
		{"moved subset count", "not the projection", func(h [][]float64) { h[1][0]--; h[1][1]++ }},
		{"subset total", "totals", func(h [][]float64) { h[top][0] += 5 }},
		{"negative cell", "negative count", func(h [][]float64) { h[top][0], h[top][1] = -1, h[top][1]+h[top][0]+1 }},
		{"short subset", "cells, want", func(h [][]float64) { h[2] = h[2][:1] }},
	}
	for _, tc := range cases {
		if _, err := load(tc.edit); !errors.Is(err, ErrMining) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	legacy, err := load(func([][]float64) {})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := legacy.CheckpointCut(0).Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	st, err := decodeState(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range st.Shards {
		if len(sh.Hists) != 0 || (sh.N > 0 && len(sh.Joint) == 0) {
			t.Fatalf("saved shard %d: %d histograms and %d joint cells, want joint cells only", i, len(sh.Hists), len(sh.Joint))
		}
	}
	again, err := LoadLiveCounter(bytes.NewReader(raw), scheme, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := legacy.Supports(probes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := again.Supports(probes)
	if err != nil {
		t.Fatal(err)
	}
	if again.N() != legacy.N() {
		t.Fatalf("round trip N=%d, want %d", again.N(), legacy.N())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round trip %s: support %v, want %v", probes[i].Key(), got[i], want[i])
		}
	}
}
