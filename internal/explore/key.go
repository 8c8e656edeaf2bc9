package explore

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"

	"ecochip/internal/core"
	"ecochip/internal/cost"
	"ecochip/internal/opcarbon"
	"ecochip/internal/pkgcarbon"
	"ecochip/internal/tech"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// keyVersion leads every key stream. Bump it whenever the encoding
// below changes, so that keys of two encodings never coincide by
// accident; every key then changes once.
const keyVersion = 1

// keyWriter folds a canonical binary encoding of a plan's inputs into a
// 64-bit fingerprint. Its state is the hash itself, which is what lets
// a Keyer snapshot the state after the database prefix and resume per
// request.
//
// The fold is FNV-64a taken a whole 8-byte word per multiply step, with
// an xor-shift after each multiply that carries high bits back down (so
// that, say, sign flips in two words cannot cancel). Each step is a
// bijection of the state, so changing any one word of a fixed-shape
// stream always changes the fingerprint.
//
// The encoding: floats as math.Float64bits; ints (and the int-kinded
// enums) as int64; bools as 0/1; strings length-prefixed, packed into
// little-endian words; every nil-able pointer behind a 0/1 presence
// word; slices and maps count-prefixed, maps in sorted key order. A new
// field of any encoded struct needs its line here —
// TestKeyCoversEveryField fails until it has one.
type keyWriter struct{ h uint64 }

func (w *keyWriter) word(v uint64) {
	h := (w.h ^ v) * fnvPrime64
	w.h = h ^ h>>32
}

func (w *keyWriter) f64(v float64) { w.word(math.Float64bits(v)) }

func (w *keyWriter) int(v int) { w.word(uint64(int64(v))) }

func (w *keyWriter) bool(v bool) {
	if v {
		w.word(1)
	} else {
		w.word(0)
	}
}

// present writes a pointer's presence word and reports whether its
// content follows.
func (w *keyWriter) present(ok bool) bool {
	w.bool(ok)
	return ok
}

func (w *keyWriter) str(s string) {
	w.int(len(s))
	for ; len(s) >= 8; s = s[8:] {
		w.word(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var t uint64
		for i := len(s) - 1; i >= 0; i-- {
			t = t<<8 | uint64(s[i])
		}
		w.word(t)
	}
}

// entry is one map entry of a key stream.
type entry[K cmp.Ordered] struct {
	k K
	v float64
}

// sortedEntries returns m's entries in ascending key order, in buf's
// backing array while they fit (the maps keyed here hold a handful of
// entries, so the sort does not allocate).
func sortedEntries[K cmp.Ordered](m map[K]float64, buf []entry[K]) []entry[K] {
	es := buf[:0]
	for k, v := range m {
		es = append(es, entry[K]{k, v})
	}
	slices.SortFunc(es, func(a, b entry[K]) int { return cmp.Compare(a.k, b.k) })
	return es
}

// node writes one technology node: a database record or a system's
// packaging node, so the two can never be encoded differently.
func (w *keyWriter) node(n *tech.Node) {
	if !w.present(n != nil) {
		return
	}
	w.int(n.Nm)
	w.f64(n.DefectDensity)
	var buf [8]entry[tech.DesignType]
	w.int(len(n.Density))
	for _, e := range sortedEntries(n.Density, buf[:]) {
		w.int(int(e.k))
		w.f64(e.v)
	}
	w.f64(n.EPA)
	w.f64(n.GasCFP)
	w.f64(n.MaterialCFP)
	w.f64(n.EquipEfficiency)
	w.f64(n.EDAProductivity)
	w.f64(n.Vdd)
	w.f64(n.EPLARDL)
	w.f64(n.EPLABridge)
	w.f64(n.WaferCostUSD)
}

// db writes the full database: the node count and every node record in
// ascending node order, so map iteration can never perturb it. Honest
// version skew (a changed defect density, a re-calibrated mask cost)
// reliably changes every key derived over it.
func (w *keyWriter) db(db *tech.DB) error {
	sizes := db.Sizes()
	w.int(len(sizes))
	for _, nm := range sizes {
		n, err := db.Get(nm)
		if err != nil {
			return err
		}
		w.node(n)
	}
	return nil
}

func (w *keyWriter) packaging(p *pkgcarbon.Params) {
	w.int(int(p.Arch))
	w.node(p.PackagingNode)
	w.f64(p.CarbonIntensity)
	w.f64(p.SpacingMM)
	w.bool(p.FlexibleFloorplan)
	w.int(p.RDLLayers)
	w.int(p.BridgeLayers)
	w.f64(p.BridgeRangeMM)
	w.f64(p.BridgeAreaMM2)
	w.f64(p.BridgeEmbedEnergyKWh)
	w.int(p.InterposerBEOLLayers)
	w.f64(p.AttachEnergyKWhPerChiplet)
	w.int(int(p.Bond))
	w.f64(p.BondPitchUM)
	w.f64(p.EnergyPerBondKWh)
	w.int(p.Router.FlitWidthBits)
	w.int(p.Router.Ports)
	w.int(p.Router.VirtualChannels)
	w.int(p.Router.BufferDepthFlits)
	w.f64(p.RouterPower.FrequencyHz)
	w.f64(p.RouterPower.Activity)
}

func (w *keyWriter) operation(o *opcarbon.Spec) {
	if !w.present(o != nil) {
		return
	}
	w.f64(o.DutyCycle)
	w.f64(o.LifetimeYears)
	w.f64(o.CarbonIntensity)
	w.f64(o.AnnualEnergyKWh)
	if e := o.Elec; w.present(e != nil) {
		w.f64(e.Vdd)
		w.f64(e.LeakA)
		w.f64(e.Activity)
		w.f64(e.CapF)
		w.f64(e.FreqHz)
	}
	if b := o.Battery; w.present(b != nil) {
		w.f64(b.CapacityWh)
		w.f64(b.ChargesPerYear)
		w.f64(b.ChargerEfficiency)
	}
}

func (w *keyWriter) system(s *core.System) {
	if !w.present(s != nil) {
		return
	}
	w.str(s.Name)
	w.int(len(s.Chiplets))
	for i := range s.Chiplets {
		c := &s.Chiplets[i]
		w.str(c.Name)
		w.int(int(c.Type))
		w.f64(c.Transistors)
		w.int(c.NodeNm)
		w.int(c.ManufacturedParts)
		w.bool(c.Reused)
	}
	w.bool(s.Monolithic)
	w.packaging(&s.Packaging)
	w.f64(s.Mfg.CarbonIntensity)
	w.f64(s.Mfg.Wafer.DiameterMM)
	w.f64(s.Mfg.Alpha)
	w.bool(s.Mfg.IncludeWastage)
	w.f64(s.Mfg.DefectDensityOverride)
	w.f64(s.Design.PowerW)
	w.int(s.Design.Iterations)
	w.f64(s.Design.CarbonIntensity)
	w.f64(s.Design.VerifShare)
	w.f64(s.Design.AnalyzeFactor)
	w.int(s.SystemVolume)
	w.operation(s.Operation)
	w.bool(s.IncludeNRE)
	w.f64(s.NRE.EnergyPerMaskKWh)
	w.f64(s.NRE.MaterialKgPerMask)
	w.f64(s.NRE.CarbonIntensity)
}

func (w *keyWriter) costParams(p *cost.Params) {
	w.f64(p.Wafer.DiameterMM)
	w.f64(p.Alpha)
	var names [16]entry[string]
	w.int(len(p.SubstrateUSDPerCM2))
	for _, e := range sortedEntries(p.SubstrateUSDPerCM2, names[:]) {
		w.str(e.k)
		w.f64(e.v)
	}
	w.f64(p.BondUSDPerChiplet)
	var nms [16]entry[int]
	w.int(len(p.MaskSetUSD))
	for _, e := range sortedEntries(p.MaskSetUSD, nms[:]) {
		w.int(e.k)
		w.f64(e.v)
	}
}

// key formats the fingerprint as prefix-<16 hex digits>.
func (w *keyWriter) key(prefix string) string {
	const zeros = "0000000000000000"
	var buf [32]byte
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	b = append(b, zeros[:16-max(1, (bits.Len64(w.h)+3)/4)]...)
	return string(strconv.AppendUint(b, w.h, 16))
}

// Keyer derives plan keys over one pinned database. The database is by
// far the largest key ingredient (every node record), and a serving
// process keys hundreds of requests against the same db version — so
// the Keyer folds the version word and the db into the hash state once,
// lazily, and each key derivation resumes from that snapshot and writes
// only the request-specific suffix. Safe for concurrent use.
type Keyer struct {
	db      *tech.DB
	once    sync.Once
	dbState uint64
	dbErr   error
}

// NewKeyer pins a database for key derivation. The db must not be
// mutated afterwards (the same contract every compiled plan already
// imposes).
func NewKeyer(db *tech.DB) *Keyer { return &Keyer{db: db} }

// start returns a keyWriter seeded with the db prefix state.
func (ky *Keyer) start() (keyWriter, error) {
	ky.once.Do(func() {
		w := keyWriter{h: fnvOffset64}
		w.word(keyVersion)
		ky.dbErr = w.db(ky.db)
		ky.dbState = w.h
	})
	return keyWriter{h: ky.dbState}, ky.dbErr
}

// SweepKey derives the stable identity of the compiled sweep of (base,
// db, nodes, cp): two parties that agree on the key are guaranteed to
// compile bit-identical plans, which is what lets a distributed shard
// replica — or a plan-cache lookup in the serving layer — compile
// locally from the key instead of receiving the plan over the wire. The
// key hashes a canonical binary encoding (see keyWriter) of every node
// record of the database, the system description, the candidate node
// list and the cost parameters. Equal content gives equal keys whatever
// the pointer aliasing or map insertion order, and a nil map keys as an
// empty one. Keys are stable across processes of one build; they are a
// content fingerprint, not a cryptographic commitment: collisions
// between adversarially crafted systems are out of scope.
func (ky *Keyer) SweepKey(base *core.System, nodes []int, cp cost.Params) (string, error) {
	w, err := ky.start()
	if err != nil {
		return "", err
	}
	w.system(base)
	w.int(len(nodes))
	for _, nm := range nodes {
		w.int(nm)
	}
	w.costParams(&cp)
	return w.key("sweep"), nil
}

// ParamKey derives the stable identity of the compiled parameter plan
// of (base, db) — the what-if cache key for perturbation requests. Same
// contract as SweepKey: equal keys compile bit-identical ParamPlans.
// The prefix keeps the three plan families in one cache namespace
// without cross-family collisions.
func (ky *Keyer) ParamKey(base *core.System) (string, error) {
	return ky.systemKey("param", base)
}

// DisaggregateKey derives the stable identity of the compiled
// disaggregation search of (base, db). Equal keys produce searches with
// identical (deterministic) greedy trajectories, so warm re-runs are
// bit-identical to the first.
func (ky *Keyer) DisaggregateKey(base *core.System) (string, error) {
	return ky.systemKey("disagg", base)
}

// systemKey is the key of a plan family that depends on the system (and
// the db) alone.
func (ky *Keyer) systemKey(prefix string, base *core.System) (string, error) {
	w, err := ky.start()
	if err != nil {
		return "", err
	}
	w.system(base)
	return w.key(prefix), nil
}

// PlanKey is the one-shot form of Keyer.SweepKey.
func PlanKey(base *core.System, db *tech.DB, nodes []int, cp cost.Params) (string, error) {
	return NewKeyer(db).SweepKey(base, nodes, cp)
}

// ParamKey is the one-shot form of Keyer.ParamKey.
func ParamKey(base *core.System, db *tech.DB) (string, error) {
	return NewKeyer(db).ParamKey(base)
}

// DisaggregateKey is the one-shot form of Keyer.DisaggregateKey.
func DisaggregateKey(base *core.System, db *tech.DB) (string, error) {
	return NewKeyer(db).DisaggregateKey(base)
}
