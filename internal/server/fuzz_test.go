package server

import (
	"bytes"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"testing"

	"forestview/internal/shard"
)

// Fuzz targets for the shard wire decoders: every shard-role endpoint that
// gob-decodes a request body must answer any input with 200, 400 or 422 —
// never a panic, never a 5xx. The checked-in corpora under
// testdata/fuzz/<target>/ and the seeds added below run as ordinary tests;
// explore further with, for example,
//
//	go test ./internal/server -run '^$' -fuzz FuzzShardEnrichRequest -fuzztime 30s

// gobBody gob-encodes v as a shard request body.
func gobBody(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// fuzzShardEndpoint posts every fuzz input to path on a drain-capable
// shard (shard-1 of a 3-shard R=2 fleet, enrichment on, admin token sent)
// and requires a client-error-or-success status. Besides the given seeds
// it always tries the empty body, non-gob text and a body one byte over
// the handler's MaxBytesReader limit (when that is small enough to seed).
func fuzzShardEndpoint(f *testing.F, path string, limit int, seeds func(top *drainTopology) []any) {
	top := newDrainTopology(f, 3, 2)
	for _, v := range seeds(top) {
		body := gobBody(f, v)
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("not a gob stream"))
	if limit <= 1<<20 {
		f.Add(bytes.Repeat([]byte{0x7f}, limit+1))
	}
	s := top.srv[1]
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", shard.ContentType)
		req.Header.Set("X-Fleet-Token", drainToken)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("%s answered %d to a %d-byte body: %s", path, rec.Code, len(body), rec.Body.String())
		}
	})
}

func FuzzShardEnrichRequest(f *testing.F) {
	fuzzShardEndpoint(f, shard.EnrichPath, 1<<20, func(top *drainTopology) []any {
		groups := shard.Groups(top.names, top.shards, 2)
		return []any{
			shard.EnrichRequest{Selection: top.selection},
			shard.EnrichRequest{Selection: top.selection, Shards: top.shards, Replication: 2, Owners: groups[0]},
			shard.EnrichRequest{Selection: top.selection, Shards: top.shards, Replication: -3, Owners: []string{"nobody"}},
			shard.EnrichRequest{Selection: []string{"NO-SUCH-GENE"}},
			shard.EnrichRequest{},
		}
	})
}

func FuzzShardSearchRequest(f *testing.F) {
	fuzzShardEndpoint(f, shard.SearchPath, 1<<20, func(top *drainTopology) []any {
		groups := shard.Groups(top.names, top.shards, 2)
		return []any{
			shard.SearchRequest{Query: top.query},
			shard.SearchRequest{Query: top.query, Shards: top.shards, Replication: 2, Owners: groups[0]},
			shard.SearchRequest{Query: top.query, Shards: top.shards, Replication: 9, Owners: []string{"nobody"}},
			shard.SearchRequest{Query: []string{"NO-SUCH-GENE"}},
			shard.SearchRequest{},
		}
	})
}

func FuzzShardHandoff(f *testing.F) {
	fuzzShardEndpoint(f, shard.HandoffPath, 64<<20, func(top *drainTopology) []any {
		groups := shard.Groups(top.names, top.shards, 2)
		enrich := gobBody(f, shard.EnrichRequest{}) // a gob body of the wrong type
		batch := func(gen uint64) shard.HandoffRequest {
			return shard.HandoffRequest{
				From: "shard-0", Shards: top.shards, Replication: 2, Generation: gen,
				Entries: []shard.HandoffEntry{
					{Kind: shard.CapabilitySearch, Query: top.query, Owners: groups[0]},
					{Kind: shard.CapabilitySearch, Query: top.query},
					{Kind: shard.CapabilityEnrich, Query: top.selection},
					{Kind: shard.CapabilityEnrich, Query: top.selection, Body: enrich},
					{Kind: shard.CapabilityEnrich, Query: top.selection, Owners: []string{"nobody"}},
					{Kind: "unknown", Query: top.query},
				},
			}
		}
		return []any{
			batch(shard.Generation(top.shards)), // the receiver's live view
			batch(12345),                        // inconsistent generation
			shard.HandoffRequest{},
		}
	})
}
