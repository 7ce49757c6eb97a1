package service

import (
	"encoding/json"
	"fmt"

	"secpb/internal/engine"
	"secpb/internal/seal"
)

// resultJSON is the canonical wire/artifact mirror of engine.Result.
// Field order is fixed by the struct, floats render via Go's shortest
// round-trip formatting, and the integrity error is flattened to a
// string — so the same Result always encodes to the same bytes. That
// byte-stability is load-bearing: the service's state digest and the
// crash-survival differential both hash these bytes.
type resultJSON struct {
	Benchmark    string  `json:"benchmark"`
	Scheme       string  `json:"scheme"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	Loads        uint64  `json:"loads"`
	Stores       uint64  `json:"stores"`
	PPTI         float64 `json:"ppti"`
	NWPE         float64 `json:"nwpe"`
	IPC          float64 `json:"ipc"`
	Entries      uint64  `json:"entries_allocated"`
	PeakOcc      int     `json:"peak_occupancy"`
	BMTRoot      uint64  `json:"bmt_root_updates"`
	EarlyBMT     uint64  `json:"early_bmt_walks"`
	PBServed     uint64  `json:"pb_served_loads"`
	Backpressure uint64  `json:"backpressure"`
	SBStall      uint64  `json:"sb_stall"`
	LoadStall    uint64  `json:"load_stall"`
	GapMean      float64 `json:"gap_mean"`
	GapP99       uint64  `json:"gap_p99"`
	PMReads      uint64  `json:"pm_reads"`
	PMWrites     uint64  `json:"pm_writes"`
	L1Hit        float64 `json:"l1_hit"`
	LLCHit       float64 `json:"llc_hit"`
	Reencrypt    uint64  `json:"reencryptions"`
	IntegrityErr string  `json:"integrity_err"`
}

// EncodeResult renders a Result as canonical newline-terminated JSON.
func EncodeResult(r engine.Result) []byte {
	m := resultJSON{
		Benchmark:    r.Benchmark,
		Scheme:       r.Scheme.String(),
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		Loads:        r.Loads,
		Stores:       r.Stores,
		PPTI:         r.PPTI,
		NWPE:         r.NWPE,
		IPC:          r.IPC,
		Entries:      r.EntriesAllocated,
		PeakOcc:      r.PeakOccupancy,
		BMTRoot:      r.BMTRootUpdates,
		EarlyBMT:     r.EarlyBMTWalks,
		PBServed:     r.PBServedLoads,
		Backpressure: r.Backpressure,
		SBStall:      r.SBStall,
		LoadStall:    r.LoadStall,
		GapMean:      r.GapMean,
		GapP99:       r.GapP99,
		PMReads:      r.PMReads,
		PMWrites:     r.PMWrites,
		L1Hit:        r.L1Hit,
		LLCHit:       r.LLCHit,
		Reencrypt:    r.Reencryptions,
	}
	if r.IntegrityErr != nil {
		m.IntegrityErr = r.IntegrityErr.Error()
	}
	b, err := json.Marshal(m)
	if err != nil {
		// A fixed struct of scalars cannot fail to marshal.
		panic(fmt.Sprintf("service: encode result: %v", err))
	}
	return append(b, '\n')
}

// stateDigest hashes an engine's full observable result state. Equal
// digests after equal op streams are the service's committed-prefix
// identity check: a resumed session must reproduce the digest its
// checkpoint sealed before it may accept new segments.
func stateDigest(r engine.Result) uint64 {
	return seal.Add(seal.Offset, EncodeResult(r))
}
