package dlsim

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"unicode/utf8"

	"gossipmia/internal/experiment"
	"gossipmia/internal/spec"
)

// Spec is one declarative scenario: a named set of arms, optionally
// augmented by a cartesian sweep that expands into further arms. It is
// the stable public face of the engine's scenario language — the JSON
// encoding is identical to the spec files dlsim runs and the bodies
// POST /v1/jobs accepts.
type Spec struct {
	Name    string `json:"name"`
	Caption string `json:"caption,omitempty"`
	Arms    []Arm  `json:"arms,omitempty"`
	Sweep   *Sweep `json:"sweep,omitempty"`
}

// Arm describes one experimental arm declaratively. Zero values of the
// optional fields select the seed semantics: static topology, IID
// partition, no DP, no canaries, instant transport, no churn, the
// corpus's catalog training configuration.
type Arm struct {
	// Label identifies the arm in tables and event streams; it must be
	// unique within the spec.
	Label string `json:"label"`
	// Corpus is the dataset stand-in: "cifar10", "cifar100",
	// "fashionmnist", or "purchase100".
	Corpus string `json:"corpus"`
	// Protocol is the gossip protocol: "base", "samo", or "samo-nodelay".
	Protocol string `json:"protocol"`
	// ViewSize is k, the regular degree.
	ViewSize int `json:"viewSize"`
	// Dynamics selects the topology evolution: "" or "static",
	// "peerswap", or "cyclon".
	Dynamics string `json:"dynamics,omitempty"`
	// Beta > 0 selects the Dirichlet non-IID partition with that β.
	Beta float64 `json:"beta,omitempty"`
	// DP enables node-level DP-SGD.
	DP *DP `json:"dp,omitempty"`
	// Canaries plants the scale's canary budget (worst-case audit).
	Canaries bool `json:"canaries,omitempty"`
	// SeedOffset separates the arm's RNG streams from its siblings'.
	SeedOffset int64 `json:"seedOffset"`
	// Net pins the arm's transport model; nil keeps the instant
	// transport.
	Net *Net `json:"net,omitempty"`
	// Churn schedules explicit node departures and rejoins (ticks).
	Churn []Churn `json:"churn,omitempty"`
	// ChurnFraction in (0,1) is the shorthand: that fraction of nodes
	// leaves at one third of the run and rejoins at two thirds.
	ChurnFraction float64 `json:"churnFraction,omitempty"`
	// Train overrides the corpus's catalog training config entirely.
	Train *Train `json:"train,omitempty"`
	// TrainPerFactor scales the per-node training-set size.
	TrainPerFactor float64 `json:"trainPerFactor,omitempty"`
	// LocalEpochs > 0 overrides only the local epoch count.
	LocalEpochs int `json:"localEpochs,omitempty"`
}

// DP is the declarative face of the DP-SGD configuration.
type DP struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	Clip    float64 `json:"clip"`
}

// Net is the declarative face of the transport configuration.
type Net struct {
	// Transport is "instant", "latency", or "lossy".
	Transport string `json:"transport"`
	// LatencyMean/LatencyJitter parameterize the per-link delay (ticks).
	LatencyMean   float64 `json:"latencyMean,omitempty"`
	LatencyJitter float64 `json:"latencyJitter,omitempty"`
	// BandwidthBytesPerTick > 0 adds the wire-size serialization term.
	BandwidthBytesPerTick int `json:"bandwidthBytesPerTick,omitempty"`
	// DropProb is the i.i.d. transmission loss probability.
	DropProb float64 `json:"dropProb,omitempty"`
	// Partitions schedules healing network partitions (ticks).
	Partitions []Partition `json:"partitions,omitempty"`
}

// Partition is one scheduled network partition.
type Partition struct {
	FromTick int   `json:"fromTick"`
	ToTick   int   `json:"toTick"`
	Members  []int `json:"members"`
}

// Churn is one scheduled departure/rejoin event.
type Churn struct {
	Node      int `json:"node"`
	LeaveTick int `json:"leaveTick"`
	// RejoinTick 0 means the node never comes back.
	RejoinTick int `json:"rejoinTick,omitempty"`
}

// Train is the declarative face of the training configuration.
type Train struct {
	Hidden      []int   `json:"hidden,omitempty"`
	LR          float64 `json:"lr"`
	Momentum    float64 `json:"momentum,omitempty"`
	WeightDecay float64 `json:"weightDecay,omitempty"`
	LRDecay     float64 `json:"lrDecay,omitempty"`
	BatchSize   int     `json:"batchSize,omitempty"`
	LocalEpochs int     `json:"localEpochs"`
}

// Sweep expands the cartesian product of its axes over a base arm.
type Sweep struct {
	Base Arm    `json:"base"`
	Axes []Axis `json:"axes"`
}

// Axis is one sweep dimension: the arm field it sets and the values it
// takes (see the spec documentation for the supported field names).
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// compile converts the public spec into the engine's representation,
// applying the engine's full structural validation (unknown names,
// duplicate labels, shared seed offsets, unexpandable sweeps).
//
// The conversion is field by field, yet it yields exactly what the
// spec's JSON encoding decodes to — the form a spec file or a
// POST /v1/jobs body takes — so hashes, store keys and job dedup keys
// do not depend on how a spec reached the engine: a NaN or infinite
// float is an error, sweep values take their JSON-decoded form, strings
// are made valid UTF-8, empty omitempty fields vanish, and nil vs empty
// survives where JSON keeps it (members, axes, values).
func (s *Spec) compile() (*spec.Spec, error) {
	if s == nil {
		return nil, fmt.Errorf("dlsim: nil spec")
	}
	var c converter
	sp := &spec.Spec{Name: validUTF8(s.Name), Caption: validUTF8(s.Caption)}
	if len(s.Arms) > 0 {
		sp.Arms = make([]spec.Arm, len(s.Arms))
		for i := range s.Arms {
			sp.Arms[i] = c.arm(&s.Arms[i])
		}
	}
	if s.Sweep != nil {
		sp.Sweep = &spec.Sweep{Base: c.arm(&s.Sweep.Base)}
		if s.Sweep.Axes != nil {
			sp.Sweep.Axes = make([]spec.Axis, len(s.Sweep.Axes))
			for i, ax := range s.Sweep.Axes {
				sp.Sweep.Axes[i] = spec.Axis{Field: validUTF8(ax.Field), Values: c.values(ax.Values)}
			}
		}
	}
	if c.err != nil {
		return nil, fmt.Errorf("dlsim: encode spec: %w", c.err)
	}
	if err := sp.Validate(); err != nil {
		return nil, fmt.Errorf("dlsim: %w", err)
	}
	return sp, nil
}

// converter carries the first error of a spec conversion, so the
// field-by-field copy reads straight through.
type converter struct{ err error }

func (c *converter) arm(a *Arm) spec.Arm {
	out := spec.Arm{
		Label:          validUTF8(a.Label),
		Corpus:         validUTF8(a.Corpus),
		Protocol:       validUTF8(a.Protocol),
		ViewSize:       a.ViewSize,
		Dynamics:       validUTF8(a.Dynamics),
		Beta:           a.Beta,
		Canaries:       a.Canaries,
		SeedOffset:     a.SeedOffset,
		ChurnFraction:  a.ChurnFraction,
		TrainPerFactor: a.TrainPerFactor,
		LocalEpochs:    a.LocalEpochs,
	}
	c.finite(a.Beta, a.ChurnFraction, a.TrainPerFactor)
	if a.DP != nil {
		dp := spec.DP(*a.DP)
		c.finite(dp.Epsilon, dp.Delta, dp.Clip)
		out.DP = &dp
	}
	if a.Net != nil {
		n := a.Net
		out.Net = &spec.Net{
			Transport:             validUTF8(n.Transport),
			LatencyMean:           n.LatencyMean,
			LatencyJitter:         n.LatencyJitter,
			BandwidthBytesPerTick: n.BandwidthBytesPerTick,
			DropProb:              n.DropProb,
		}
		c.finite(n.LatencyMean, n.LatencyJitter, n.DropProb)
		if len(n.Partitions) > 0 {
			out.Net.Partitions = make([]spec.Partition, len(n.Partitions))
			for i, p := range n.Partitions {
				out.Net.Partitions[i] = spec.Partition(p)
				out.Net.Partitions[i].Members = slices.Clone(p.Members)
			}
		}
	}
	if len(a.Churn) > 0 {
		out.Churn = make([]spec.Churn, len(a.Churn))
		for i, ev := range a.Churn {
			out.Churn[i] = spec.Churn(ev)
		}
	}
	if a.Train != nil {
		t := spec.Train(*a.Train)
		t.Hidden = nil
		if len(a.Train.Hidden) > 0 {
			t.Hidden = slices.Clone(a.Train.Hidden)
		}
		c.finite(t.LR, t.Momentum, t.WeightDecay, t.LRDecay)
		out.Train = &t
	}
	return out
}

// finite rejects NaN and ±Inf, which JSON cannot carry.
func (c *converter) finite(fs ...float64) {
	for _, f := range fs {
		if (math.IsNaN(f) || math.IsInf(f, 0)) && c.err == nil {
			c.err = fmt.Errorf("unsupported value %v", f)
		}
	}
}

// validUTF8 returns s as JSON carries it: each byte of invalid UTF-8
// becomes U+FFFD, which is also what a []rune conversion does.
func validUTF8(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// values returns sweep axis values in their JSON-decoded form: numbers
// are float64, and anything but a float64, int, string, bool or nil
// takes the long way through encoding/json.
func (c *converter) values(vs []any) []any {
	if vs == nil {
		return nil
	}
	out := make([]any, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case nil, bool:
			out[i] = x
		case string:
			out[i] = validUTF8(x)
		case float64:
			c.finite(x)
			out[i] = x
		case int:
			out[i] = float64(x)
		default:
			raw, err := json.Marshal(x)
			if err == nil {
				err = json.Unmarshal(raw, &out[i])
			}
			if err != nil && c.err == nil {
				c.err = err
			}
		}
	}
	return out
}

// Validate reports structural errors in the spec without running it.
func (s *Spec) Validate() error {
	_, err := s.compile()
	return err
}

// Hash returns the spec's canonical content hash: the SHA-256 of its
// expanded arm list. Two specs that expand to the same arms hash
// identically; the hash keys the engine's resume cache and the
// service's job dedup.
func (s *Spec) Hash() (string, error) {
	sp, err := s.compile()
	if err != nil {
		return "", err
	}
	return sp.Hash()
}

// LoadSpec reads, parses, and validates a scenario spec file (the same
// JSON format dlsim -spec runs).
func LoadSpec(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dlsim: read %s: %w", path, err)
	}
	return ParseSpec(raw)
}

// ParseSpec decodes and validates a scenario spec from JSON. Unknown
// fields are rejected so typos cannot silently select defaults.
func ParseSpec(raw []byte) (*Spec, error) {
	if _, err := spec.Parse(raw); err != nil {
		return nil, fmt.Errorf("dlsim: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("dlsim: decode spec: %w", err)
	}
	return &s, nil
}

// RoundRecord holds the per-round measurements the engine reports:
// global test accuracy, the two MIA vulnerability measures, and
// generalization error.
type RoundRecord struct {
	Round     int     `json:"round"`
	TestAcc   float64 `json:"testAcc"`
	MIAAcc    float64 `json:"miaAcc"`
	TPRAt1FPR float64 `json:"tprAt1FPR"`
	GenError  float64 `json:"genError"`
}

// Event is one streamed measurement: an arm label plus the round's
// record — the unit of the SDK's Sink interface, the engine's JSONL
// event files, and the service's NDJSON /v1/jobs/{id}/events stream.
type Event struct {
	Arm string `json:"arm"`
	RoundRecord
}

// ArmResult is one arm's outcome: its per-round series plus run-level
// aggregates.
type ArmResult struct {
	Label           string        `json:"label"`
	Records         []RoundRecord `json:"records"`
	MessagesSent    int           `json:"messagesSent"`
	BytesSent       int           `json:"bytesSent"`
	RealizedEpsilon float64       `json:"realizedEpsilon,omitempty"`
	NoiseMultiplier float64       `json:"noiseMultiplier,omitempty"`
}

// Checksum returns the sha256 (hex) of the arm result's canonical
// JSON encoding. Floats survive a JSON round trip exactly (Go emits
// the shortest representation that decodes back to the same value),
// so decode(encode(a)).Checksum() == a.Checksum() — which lets the
// service re-verify an uploaded result against the sum the worker
// claimed, without trusting the worker's bytes.
func (a ArmResult) Checksum() string {
	raw, err := json.Marshal(a)
	if err != nil {
		// ArmResult contains only marshalable fields; this cannot
		// happen for real values.
		return ""
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// AtMaxTestAcc returns the record of the round achieving the best
// global test accuracy — the operating point the paper quotes.
func (a ArmResult) AtMaxTestAcc() RoundRecord {
	var best RoundRecord
	for i, r := range a.Records {
		if i == 0 || r.TestAcc > best.TestAcc {
			best = r
		}
	}
	return best
}

// Result collects the arms of one completed scenario run.
type Result struct {
	Name    string      `json:"name"`
	Caption string      `json:"caption,omitempty"`
	Arms    []ArmResult `json:"arms"`
	// Notes are analysis lines appended below the table.
	Notes []string `json:"notes,omitempty"`
}

// Table renders the per-arm summary rows of the result.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.Name, r.Caption)
	fmt.Fprintf(&b, "%-38s %8s %8s %8s %8s %8s %9s %9s %8s\n",
		"arm", "maxAcc", "MIA@max", "maxMIA", "maxTPR", "maxGen", "messages", "MiB", "epsilon")
	for _, a := range r.Arms {
		at := a.AtMaxTestAcc()
		var maxMIA, maxTPR, maxGen float64
		for _, rec := range a.Records {
			maxMIA = max(maxMIA, rec.MIAAcc)
			maxTPR = max(maxTPR, rec.TPRAt1FPR)
			maxGen = max(maxGen, rec.GenError)
		}
		fmt.Fprintf(&b, "%-38s %8.3f %8.3f %8.3f %8.3f %8.3f %9d %9.1f %8.2f\n",
			a.Label, at.TestAcc, at.MIAAcc, maxMIA, maxTPR,
			maxGen, a.MessagesSent, float64(a.BytesSent)/(1<<20), a.RealizedEpsilon)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// specOf converts an engine spec into the public representation (the
// JSON encodings are identical by construction).
func specOf(sp *spec.Spec) (*Spec, error) {
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("dlsim: encode spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("dlsim: decode spec: %w", err)
	}
	return &s, nil
}

// resultOf converts the engine's figure into the public result.
func resultOf(fig *experiment.FigureResult) *Result {
	res := &Result{Name: fig.Name, Caption: fig.Caption, Notes: fig.Notes}
	for _, arm := range fig.Arms {
		out := ArmResult{
			Label:           arm.Label,
			MessagesSent:    arm.MessagesSent,
			BytesSent:       arm.BytesSent,
			RealizedEpsilon: arm.RealizedEpsilon,
			NoiseMultiplier: arm.NoiseMultiplier,
		}
		for _, rec := range arm.Series.Records {
			out.Records = append(out.Records, RoundRecord{
				Round: rec.Round, TestAcc: rec.TestAcc, MIAAcc: rec.MIAAcc,
				TPRAt1FPR: rec.TPRAt1FPR, GenError: rec.GenError,
			})
		}
		res.Arms = append(res.Arms, out)
	}
	return res
}
