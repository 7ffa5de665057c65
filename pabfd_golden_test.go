package glapsim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// pabfdExperiment is the fixed small-scale PABFD run whose Series is pinned
// byte-for-byte. Sixty rounds at the controller's default Period of 3 give
// twenty passes, so the later passes run on MAD thresholds (at least ten
// history samples) rather than the static fallback.
func pabfdExperiment(heterogeneous bool) Experiment {
	x := smallExperiment(PolicyPABFD)
	x.Rounds = 60
	x.Heterogeneous = heterogeneous
	return x
}

// pabfdSeriesHash and pabfdHeteroSeriesHash pin the centralized baseline:
// MAD thresholds, overload shedding, power-aware best fit and the
// evacuation planner. They were taken on the map-based controller that
// predates the powered-host list and the per-pass utilisation cache, which
// must reproduce every migration of it. Never regenerate them to absorb a
// performance change; only an intentional change of PABFD's policy may move
// them. Regenerate with
// GLAP_GOLDEN_UPDATE=1 go test -run TestPABFDSeriesPinned -v .
const (
	pabfdSeriesHash       = "3bee804b872f7ba6e6acb610577cb65f5a5e75565af2277a633c5753f657c68c"
	pabfdHeteroSeriesHash = "e24942943d535c4151ce8fcc6f86c6fd314c3e8953909a68588ebd7b5c4d3390"
)

func TestPABFDSeriesPinned(t *testing.T) {
	for _, tc := range []struct {
		name   string
		hetero bool
		want   string
	}{
		{"homogeneous", false, pabfdSeriesHash},
		{"heterogeneous", true, pabfdHeteroSeriesHash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(pabfdExperiment(tc.hetero))
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Cluster.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			dump := serializeSeries(res)
			sum := sha256.Sum256([]byte(dump))
			got := hex.EncodeToString(sum[:])
			if os.Getenv("GLAP_GOLDEN_UPDATE") != "" {
				t.Logf("PABFD %s series dump:\n%s", tc.name, dump)
				t.Logf("series hash = %q", got)
				return
			}
			if got != tc.want {
				t.Fatalf("PABFD %s Series fingerprint changed:\n got %s\nwant %s\nserialised series:\n%s",
					tc.name, got, tc.want, dump)
			}
		})
	}
}
