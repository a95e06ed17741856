package wire_test

import (
	"bytes"
	"testing"

	"ssbyzclock/internal/core"
	"ssbyzclock/internal/wire"
)

// batchCorpus builds a realistic batch payload: three tenants starting
// at tenant 5, mixed empty and multi-message runs, with payloads drawn
// from real beat traffic under coin layout l.
func batchCorpus(l core.Layout, t testing.TB) (start int, runs [][]wire.BatchMsg, payload []byte) {
	t.Helper()
	frames := beatTraffic(l, t)
	var msgs [][]byte
	for _, enc := range frames {
		f, err := wire.DecodeFrame(enc)
		if err != nil {
			t.Fatal(err)
		}
		if f.Kind == wire.KindMsg {
			msgs = append(msgs, f.Payload)
		}
	}
	if len(msgs) < 3 {
		t.Fatalf("corpus too small: %d messages", len(msgs))
	}
	start = 5
	runs = [][]wire.BatchMsg{
		{{Seq: 0, Payload: msgs[0]}, {Seq: 1, Payload: msgs[1]}},
		{}, // tenant with no traffic this beat: window stays contiguous
		{{Seq: 7, Payload: msgs[2]}, {Seq: 9, Payload: nil}},
	}
	return start, runs, wire.AppendBatchPayload(nil, start, runs)
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			start, runs, payload := batchCorpus(l, t)
			type rec struct {
				tenant int
				seq    uint32
				msg    []byte
			}
			var got []rec
			if err := wire.DecodeBatchPayload(payload, 64, func(tenant int, seq uint32, msg []byte) {
				got = append(got, rec{tenant, seq, msg})
			}); err != nil {
				t.Fatal(err)
			}
			var want []rec
			for i, run := range runs {
				for _, m := range run {
					want = append(want, rec{start + i, m.Seq, m.Payload})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("decoded %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].tenant != want[i].tenant || got[i].seq != want[i].seq || !bytes.Equal(got[i].msg, want[i].msg) {
					t.Fatalf("message %d: got %+v want %+v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestBatchPayloadRejectsMalformed(t *testing.T) {
	for _, l := range core.Layouts {
		t.Run(l.String(), func(t *testing.T) {
			_, _, good := batchCorpus(l, t)
			seen := 0
			count := func(int, uint32, []byte) { seen++ }

			// Truncation at every byte boundary: error, no panic, and — the
			// all-or-nothing contract — not a single callback.
			for cut := 0; cut < len(good); cut++ {
				seen = 0
				if err := wire.DecodeBatchPayload(good[:cut], 64, count); err == nil {
					t.Fatalf("truncated payload (%d bytes) decoded", cut)
				}
				if seen != 0 {
					t.Fatalf("truncated payload (%d bytes) invoked %d callbacks", cut, seen)
				}
			}

			bad := [][]byte{
				append(append([]byte{}, good...), 0xAB),                         // trailing bytes
				{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0}, // tenant start overflow
				wire.AppendBatchPayload(nil, wire.MaxBatchTenants+1, nil),       // start beyond bound
				{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // tenant count overflow
				{0, 1, 0xff, 0xff, 0xff, 0x7f},                                  // run length beyond MaxBatchMsgs
				{0, 1, 1, 0xff, 0xff, 0xff, 0xff, 0x7f, 0},                      // seq beyond uint32
				{0, 1, 1, 0, 0x20}, // msg length beyond remaining bytes
			}
			for i, b := range bad {
				seen = 0
				if err := wire.DecodeBatchPayload(b, 0, count); err == nil {
					t.Fatalf("case %d: decoded malformed batch %x", i, b)
				}
				if seen != 0 {
					t.Fatalf("case %d: malformed batch invoked %d callbacks", i, seen)
				}
			}
		})
	}
}

// TestBatchPayloadTenantBound: a structurally valid batch whose window
// reaches past the receiver's tenant count is rejected whole — the
// receiver-side index-safety guarantee.
func TestBatchPayloadTenantBound(t *testing.T) {
	payload := wire.AppendBatchPayload(nil, 6, [][]wire.BatchMsg{{}, {}}) // window [6, 8)
	if err := wire.DecodeBatchPayload(payload, 8, func(int, uint32, []byte) {}); err != nil {
		t.Fatalf("window [6,8) with 8 tenants rejected: %v", err)
	}
	if err := wire.DecodeBatchPayload(payload, 7, func(int, uint32, []byte) {}); err == nil {
		t.Fatal("window [6,8) with 7 tenants decoded")
	}
	// maxTenant <= 0 disables the bound (senders validating their own
	// encodes), never panics.
	if err := wire.DecodeBatchPayload(payload, 0, func(int, uint32, []byte) {}); err != nil {
		t.Fatalf("unbounded decode rejected: %v", err)
	}
}

// FuzzDecodeBatchPayload fuzzes the batch decoder exactly as
// FuzzDecodeFrame fuzzes the frame decoder: never panic, and anything
// that decodes must survive a re-encode/re-decode round trip with
// identical (tenant, seq, payload) triples. Seeds cover real traffic,
// truncated windows, and oversized varints.
func FuzzDecodeBatchPayload(f *testing.F) {
	for _, l := range core.Layouts {
		_, _, good := batchCorpus(l, f)
		f.Add(good, 64)
		f.Add(good[:len(good)/2], 64)
	}
	f.Add([]byte{0, 2, 0, 0}, 2)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 8)
	f.Fuzz(func(t *testing.T, data []byte, maxTenant int) {
		if maxTenant < 0 || maxTenant > wire.MaxBatchTenants {
			maxTenant = 64
		}
		type rec struct {
			tenant int
			seq    uint32
			msg    []byte
		}
		var got []rec
		lo, hi := -1, -1
		if err := wire.DecodeBatchPayload(data, maxTenant, func(tenant int, seq uint32, msg []byte) {
			if maxTenant > 0 && tenant >= maxTenant {
				t.Fatalf("callback tenant %d >= bound %d", tenant, maxTenant)
			}
			if lo < 0 {
				lo = tenant
			}
			if tenant < hi {
				t.Fatalf("tenants out of order: %d after %d", tenant, hi)
			}
			hi = tenant
			got = append(got, rec{tenant, seq, msg})
		}); err != nil {
			if len(got) != 0 {
				t.Fatalf("error after %d callbacks: all-or-nothing violated", len(got))
			}
			return
		}
		if len(got) == 0 {
			return
		}
		// Re-encode the decoded window and require a stable round trip.
		runs := make([][]wire.BatchMsg, hi-lo+1)
		for _, r := range got {
			runs[r.tenant-lo] = append(runs[r.tenant-lo], wire.BatchMsg{Seq: r.seq, Payload: r.msg})
		}
		re := wire.AppendBatchPayload(nil, lo, runs)
		var back []rec
		if err := wire.DecodeBatchPayload(re, maxTenant, func(tenant int, seq uint32, msg []byte) {
			back = append(back, rec{tenant, seq, msg})
		}); err != nil {
			t.Fatalf("re-encoded batch undecodable: %v", err)
		}
		if len(back) != len(got) {
			t.Fatalf("round trip changed message count: %d vs %d", len(back), len(got))
		}
		for i := range got {
			if back[i].tenant != got[i].tenant || back[i].seq != got[i].seq || !bytes.Equal(back[i].msg, got[i].msg) {
				t.Fatalf("message %d not stable: %+v vs %+v", i, got[i], back[i])
			}
		}
	})
}
