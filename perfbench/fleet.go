package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/api"
	"repro/internal/live"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/wal"
)

// shardNames and shardSpec describe the fleet: three hash-sharded
// daemons, as twopcd -shardmap hash:F1,F2,F3 would run them.
var shardNames = []string{"F1", "F2", "F3"}

const shardSpec = "hash:F1,F2,F3"

// fleet is three in-process daemons, each logging to its own segment
// store with the adaptive 2 ms group-commit window (the twopcd -wal
// defaults). Every force still runs the pipeline, writes the segment
// file and calls Store.Sync; only the fdatasync syscall is off. The
// segment files must live inside the benchmark's checkout, which is
// on a shared disk whose fdatasync latency swings run-to-run
// throughput by tens of percent; on tmpfs the syscall costs next to
// nothing, which is what this setting reproduces.
type fleet struct {
	dir     string
	servers []*server.Server
	logs    []*wal.Log
	segs    []*wal.SegmentStore
	stores  []*tracedStore
	proxies []*stageProxy
	smap    *router.ShardMap
}

// bootFleet starts the fleet under dir. With rec non-nil every
// segment store is wrapped in a tracedStore feeding it (recording
// starts only when rec is switched on).
func bootFleet(dir string, rec *recorder) (*fleet, error) {
	smap, err := router.Parse(shardSpec)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, smap: smap}
	variant, _ := server.ParseVariant("pa")
	for i, name := range shardNames {
		seg, err := wal.OpenSegmentStore(filepath.Join(dir, name), wal.WithSegmentFsync(false))
		if err != nil {
			f.close()
			return nil, err
		}
		f.segs = append(f.segs, seg)
		var store wal.Store = seg
		if rec != nil {
			ts := &tracedStore{Store: seg, node: uint8(i + 1), rec: rec}
			f.stores = append(f.stores, ts)
			store = ts
		}
		log := wal.New(store)
		f.logs = append(f.logs, log)
		s, err := server.New(server.Config{
			Name:        name,
			Variant:     variant,
			Log:         log,
			LiveOptions: []live.Option{live.WithAdaptiveCommit(2 * time.Millisecond)},
			ShardMap:    shardSpec,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, s)
	}
	for i, s := range f.servers {
		for j, peer := range f.servers {
			if i != j {
				s.RegisterPeer(shardNames[j], peer.ProtoAddr())
				s.RegisterPeerHTTP(shardNames[j], f.url(j))
			}
		}
	}
	return f, nil
}

func (f *fleet) url(i int) string { return "http://" + f.servers[i].HTTPAddr() }

// interposeStageProxies points every daemon's view of every peer at a
// timing reverse proxy, so each /v1/stage call becomes a span. Clients
// that already fetched the shard map keep talking to the daemons
// directly.
func (f *fleet) interposeStageProxies(rec *recorder) error {
	for j := range f.servers {
		p, err := newStageProxy(f.url(j), rec)
		if err != nil {
			return err
		}
		f.proxies = append(f.proxies, p)
		for i, s := range f.servers {
			if i != j {
				s.RegisterPeerHTTP(shardNames[j], p.url)
			}
		}
	}
	return nil
}

// drain stops admission on every daemon and waits until each cost
// ledger is empty: every transaction closed and audited.
func (f *fleet) drain(ctx context.Context) error {
	for _, s := range f.servers {
		if err := s.Drain(ctx); err != nil {
			return err
		}
	}
	for i, s := range f.servers {
		for s.Registry().CostLedgerSize() > 0 {
			s.AuditNow()
			select {
			case <-ctx.Done():
				return fmt.Errorf("%s: cost ledger still holds %d entries: %w",
					shardNames[i], s.Registry().CostLedgerSize(), ctx.Err())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return nil
}

// close stops the daemons and proxies and removes the segment files.
func (f *fleet) close() {
	for _, p := range f.proxies {
		p.close()
	}
	for _, s := range f.servers {
		_ = s.Close() // always nil
	}
	for _, l := range f.logs {
		_ = l.Close() // the run is over; nothing recovers these logs
	}
	for _, s := range f.segs {
		_ = s.Close()
	}
	_ = os.RemoveAll(f.dir) // best effort: a leftover directory only costs disk
}

// ownerBatches renders one op per key and groups them into
// single-shard batches, so each batch commits on its key's owner alone.
func ownerBatches(smap *router.ShardMap, keys []int, op func(key string) api.Op) [][]api.Op {
	const batch = 500
	byOwner := map[string][]api.Op{}
	var batches [][]api.Op
	for _, k := range keys {
		key := keyName(k)
		owner := smap.Owner(key)
		byOwner[owner] = append(byOwner[owner], op(key))
		if len(byOwner[owner]) == batch {
			batches = append(batches, byOwner[owner])
			byOwner[owner] = nil
		}
	}
	for _, name := range shardNames {
		if len(byOwner[name]) > 0 {
			batches = append(batches, byOwner[name])
		}
	}
	return batches
}

// preload writes preloadValue to all numKeys keys through /v1/commit,
// the clients sharing the batches.
func preload(ctx context.Context, clients []*clientRun, smap *router.ShardMap) error {
	keys := make([]int, numKeys)
	for k := range keys {
		keys[k] = k
	}
	batches := ownerBatches(smap, keys, func(key string) api.Op { return client.Put(key, preloadValue) })
	errc := make(chan error, len(clients))
	for i, cr := range clients {
		go func(i int, c *client.Client) {
			for b := i; b < len(batches); b += len(clients) {
				resp, err := c.Commit(ctx, "", batches[b])
				if err == nil && resp.Outcome != "committed" {
					err = fmt.Errorf("preload batch %d: outcome %s (%s)", b, resp.Outcome, resp.Abort)
				}
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(i, cr.c)
	}
	var first error
	for range clients {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stageProxy is a reverse proxy in front of one daemon's HTTP plane
// that records every /v1/stage call as a span keyed by its tx.
type stageProxy struct {
	url string
	srv *http.Server
	tr  *http.Transport
	wg  sync.WaitGroup
}

func newStageProxy(target string, rec *recorder) (*stageProxy, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rp := httputil.NewSingleHostReverseProxy(u)
	p := &stageProxy{url: "http://" + ln.Addr().String(), tr: &http.Transport{MaxIdleConnsPerHost: 16}}
	rp.Transport = p.tr
	p.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != api.PathStage {
			rp.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var sreq api.StageRequest
		_ = json.Unmarshal(body, &sreq) // a malformed body is the daemon's to reject
		r.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		rp.ServeHTTP(w, r)
		if !sreq.Abort {
			rec.add(span{kind: kindStage, tx: sreq.Tx, start: rec.at(start), end: rec.at(time.Now())})
		}
	})}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = p.srv.Serve(ln) // returns ErrServerClosed once close runs
	}()
	return p, nil
}

func (p *stageProxy) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = p.srv.Shutdown(ctx) // on timeout the daemons' own shutdown cuts the connections
	p.wg.Wait()
	p.tr.CloseIdleConnections()
}

// tracedStore wraps a daemon's segment store: while the recorder is on,
// every Append and Sync becomes a span and appended bytes are counted
// at the store's on-disk record size.
type tracedStore struct {
	wal.Store
	node  uint8 // as in span
	rec   *recorder
	bytes atomic.Int64
}

func (s *tracedStore) Append(r wal.Record) error {
	if !s.rec.on.Load() {
		return s.Store.Append(r)
	}
	start := time.Now()
	err := s.Store.Append(r)
	s.rec.add(span{kind: kindAppend, tx: r.Tx, node: s.node, start: s.rec.at(start), end: s.rec.at(time.Now())})
	s.bytes.Add(int64(recordBytes(r)))
	return err
}

func (s *tracedStore) Sync() error {
	if !s.rec.on.Load() {
		return s.Store.Sync()
	}
	start := time.Now()
	err := s.Store.Sync()
	s.rec.add(span{kind: kindSync, node: s.node, start: s.rec.at(start), end: s.rec.at(time.Now())})
	return err
}

// recordBytes is a record's framed size in a segment: an 8-byte
// length+CRC header, the uvarint LSN, a flag byte, and the
// length-prefixed Tx, Node, Kind and Data fields.
func recordBytes(r wal.Record) int {
	uv := func(x uint64) int { return binary.PutUvarint(make([]byte, binary.MaxVarintLen64), x) }
	n := 8 + uv(uint64(r.LSN)) + 1
	for _, l := range []int{len(r.Tx), len(r.Node), len(r.Kind), len(r.Data)} {
		n += uv(uint64(l)) + l
	}
	return n
}
