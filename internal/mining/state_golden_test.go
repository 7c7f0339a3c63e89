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
// committed v3 state payloads. Each testdata/v3-<scheme>.gob is one
// ShardedCounter.Save of a saved_shards-shard counter fed the perturbed
// records of buildSkewedDB(t, 1500, 4242) (perturbation seed 4243, the
// liveSchemes generators), with N and the supports of itemsets recorded
// at the same time. The payloads are never regenerated: they pin the
// format that every FileStore checkpoint on disk carries.
type goldenV3 struct {
	Schema      string              `json:"schema"`
	Attrs       []dataset.Attribute `json:"attrs"`
	Gamma       float64             `json:"gamma"`
	SavedShards int                 `json:"saved_shards"`
	Itemsets    [][][2]int          `json:"itemsets"`
	Fixtures    []struct {
		Scheme   string    `json:"scheme"`
		File     string    `json:"file"`
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

// TestStateGoldenV3Decodes: every committed v3 payload decodes with
// LoadLiveCounter at shard counts other than the saved one, to exactly
// the recorded N and to the recorded supports within 1e-9.
func TestStateGoldenV3Decodes(t *testing.T) {
	g, schema, probes := loadGoldenV3(t)
	if len(g.Fixtures) != len(SchemeNames()) {
		t.Fatalf("%d fixtures, want one per scheme %v", len(g.Fixtures), SchemeNames())
	}
	for _, fx := range g.Fixtures {
		t.Run(fx.Scheme, func(t *testing.T) {
			scheme, err := SchemeForContract(fx.Scheme, schema, g.Gamma)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := os.ReadFile(filepath.Join("testdata", fx.File))
			if err != nil {
				t.Fatal(err)
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
