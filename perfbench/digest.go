package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"crnet/internal/network"
)

// counters are the deterministic work counters of one operation, read
// through the network's public *Stats accessors. They depend only on
// the simulated run, never on the host, so they are pinned exactly.
type counters struct {
	FlitsMoved     int64 `json:"router.flits_moved"`
	HeadersRouted  int64 `json:"router.headers_routed"`
	BlockedHeaders int64 `json:"router.blocked_headers"`
	KillsFwd       int64 `json:"router.kills_fwd"`
	PurgedFlits    int64 `json:"router.purged_flits"`
	DataFlits      int64 `json:"core.data_flits"`
	PadFlits       int64 `json:"core.pad_flits"`
	Kills          int64 `json:"core.kills"`
	Retries        int64 `json:"core.retries"`
	FKills         int64 `json:"core.fkills"`
	StallCycles    int64 `json:"core.stall_cycles"`
	RecvDataFlits  int64 `json:"core.recv_data_flits"`
	LinkFlits      int64 `json:"network.link_flits"`
	Transient      int64 `json:"faults.transient"`
	Submitted      int64 `json:"workload.submitted"`
}

func readCounters(net *network.Network) counters {
	rs, is := net.RouterStats(), net.InjectorStats()
	return counters{
		FlitsMoved:     rs.FlitsMoved,
		HeadersRouted:  rs.HeadersRouted,
		BlockedHeaders: rs.BlockedHeaders,
		KillsFwd:       rs.KillsFwd,
		PurgedFlits:    rs.PurgedFlits,
		DataFlits:      is.DataFlits,
		PadFlits:       is.PadFlits,
		Kills:          is.Kills,
		Retries:        is.Retries,
		FKills:         is.FKills,
		StallCycles:    is.StallCycles,
		RecvDataFlits:  net.ReceiverStats().DataFlits,
		LinkFlits:      net.LinkFlits(),
		Transient:      net.TransientFaults(),
		Submitted:      is.Submitted,
	}
}

// usefulFrac is the share of injected flits (data plus padding) that
// arrived as data at their destinations.
func (c counters) usefulFrac() float64 {
	if c.DataFlits+c.PadFlits == 0 {
		return 0
	}
	return float64(c.RecvDataFlits) / float64(c.DataFlits+c.PadFlits)
}

// record adds the counters to b as per-layer metrics.
func (c counters) record(b *bench) {
	fields := []struct {
		name string
		v    int64
	}{
		{"router.flits_moved", c.FlitsMoved},
		{"router.headers_routed", c.HeadersRouted},
		{"router.blocked_headers", c.BlockedHeaders},
		{"router.kills_fwd", c.KillsFwd},
		{"router.purged_flits", c.PurgedFlits},
		{"core.data_flits", c.DataFlits},
		{"core.pad_flits", c.PadFlits},
		{"core.kills", c.Kills},
		{"core.retries", c.Retries},
		{"core.fkills", c.FKills},
		{"core.stall_cycles", c.StallCycles},
		{"network.link_flits", c.LinkFlits},
		{"faults.transient", c.Transient},
		{"workload.submitted", c.Submitted},
	}
	for _, f := range fields {
		b.record(f.name, "count", float64(f.v))
	}
	b.record("core.useful_flit_frac", "frac", c.usefulFrac())
}

// digest hashes the JSON encodings of its arguments. sim.Metrics and
// sim.ServiceStatus encode without their pointer fields (Phases and
// Series are tagged json:"-"); floats encode in their shortest exact
// form, so equal digests mean bit-equal results.
func digest(parts ...any) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		data, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("digest: %w", err)
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// pins maps workload -> seed -> digest. The default seed (1) and the
// held-out seed (101) are pinned for every workload; the held-out seed
// is for re-checking a later claim on a seed not used while making it.
//
//go:embed pins.json
var pinsJSON []byte

func loadPins(data []byte) (map[string]map[string]string, error) {
	pins := map[string]map[string]string{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pins, nil
}

// pinFor returns the pinned digest of workload at seed, or "" when the
// seed has none.
func pinFor(workload string, seed uint64) string {
	pins, err := loadPins(pinsJSON)
	if err != nil {
		panic(err) // embedded at build time; a bad file is a build defect
	}
	return pins[workload][strconv.FormatUint(seed, 10)]
}

// writePin records digest for workload at seed in the pins file at path.
func writePin(path, workload string, seed uint64, d string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pins, err := loadPins(data)
	if err != nil {
		return err
	}
	if pins[workload] == nil {
		pins[workload] = map[string]string{}
	}
	pins[workload][strconv.FormatUint(seed, 10)] = d
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
