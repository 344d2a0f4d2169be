package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"salamander/internal/blockdev"
	"salamander/internal/core"
	"salamander/internal/difs"
	"salamander/internal/flash"
	"salamander/internal/rber"
	"salamander/internal/sim"
	"salamander/internal/store"
	"salamander/internal/telemetry"
)

// fleetKind selects what backs the cluster's nodes.
type fleetKind int

const (
	// fleetMem mirrors `salsrv -devices mem`: RAM minidisks, no device cost.
	fleetMem fleetKind = iota
	// fleetWorn mirrors `salsrv -devices core -wear 0.6`: flash pre-worn to
	// 60% of nominal PEC with grown stuck columns, real BCH, levels up to 2.
	fleetWorn
	// fleetDurable mirrors `salsrv -devices core -data-dir DIR`: fresh core
	// devices whose pages and wear persist in a store, so a restart rebuilds
	// every device from its store and replays its pages.
	fleetDurable
)

// The fleet shape mirrors salsrv's defaults: 6 nodes, 16 metadata shards,
// 4-oPage chunks, mem nodes of 8 minidisks x 512 oPages, and one fixed
// cluster/device seed so every benchmark seed runs the same system.
const (
	fleetNodes    = 6
	memDisks      = 8
	memLBAs       = 512
	clusterShards = 16
	fleetSeed     = 1
	wearFraction  = 0.6
)

// clusterConfig is salsrv's cluster configuration.
func clusterConfig() difs.Config {
	cfg := difs.DefaultConfig()
	cfg.ChunkOPages = 4
	cfg.Seed = fleetSeed * 31
	cfg.Shards = clusterShards
	return cfg
}

// coreConfig is salsrv's core device configuration for node i.
func coreConfig(kind fleetKind, i int) core.Config {
	dcfg := core.DefaultConfig()
	dcfg.Flash.Geometry = flash.Geometry{
		Channels:      4,
		BlocksPerChan: 16,
		PagesPerBlock: 16,
		PageSize:      rber.FPageSize,
		SpareSize:     rber.SpareSize,
	}
	dcfg.Flash.StoreData = true
	dcfg.RealECC = false
	dcfg.MSizeOPages = 16
	dcfg.MaxLevel = i % 2
	dcfg.Flash.Seed = fleetSeed + uint64(i)*977
	dcfg.Seed = fleetSeed*13 + uint64(i)
	if kind == fleetWorn {
		dcfg.RealECC = true
		dcfg.MaxLevel = 2
		dcfg.Flash.PreWornPEC = uint32(wearFraction * dcfg.Flash.Reliability.NominalPEC)
		dcfg.Flash.StuckColumnsPerNominalPEC = 8
	}
	return dcfg
}

// fleet is one cluster with its devices and stores, rebuilt in place by
// restart the way a salsrv process restart rebuilds it.
type fleet struct {
	kind fleetKind
	reg  *telemetry.Registry
	tr   *tracer // nil on untraced runs
	c    *difs.Cluster

	devs []*devProbe
	// meta holds the cluster's object manifests (salsrv's DIR/cluster);
	// every fleet keeps one so a restart can run Recover.
	meta  *store.Mem
	metaH *storeProbe
	// Durable fleets only: one store per node (DIR/node<i>) and the
	// durable devices opened over them.
	nodeSt   []*store.Mem
	nodeH    []*storeProbe
	durables []*core.Durable
}

func (k fleetKind) flash() bool { return k != fleetMem }

// newFleet builds an empty fleet and attaches its manifest plane.
func newFleet(kind fleetKind, tr *tracer) (*fleet, error) {
	f := &fleet{kind: kind, reg: telemetry.NewRegistry(), tr: tr, meta: store.NewMem()}
	for i := 0; i < fleetNodes; i++ {
		var dev blockdev.Device
		switch kind {
		case fleetMem:
			dev = blockdev.NewMemDevice(memDisks, memLBAs)
		case fleetWorn:
			d, err := core.New(coreConfig(kind, i), sim.NewEngine())
			if err != nil {
				return nil, fmt.Errorf("node %d: %w", i, err)
			}
			d.Instrument(f.reg, nil)
			dev = d
		case fleetDurable:
			st := store.NewMem()
			f.nodeSt = append(f.nodeSt, st)
			f.nodeH = append(f.nodeH, &storeProbe{inner: st, tr: tr})
			d, err := core.OpenDurable(coreConfig(kind, i), sim.NewEngine(), f.nodeH[i], core.DurableOptions{})
			if err != nil {
				return nil, fmt.Errorf("node %d: %w", i, err)
			}
			d.Instrument(f.reg, nil)
			f.durables = append(f.durables, d)
			dev = d
		}
		p, err := newDevProbe(dev, i, tr)
		if err != nil {
			return nil, err
		}
		f.devs = append(f.devs, p)
	}
	f.metaH = &storeProbe{inner: f.meta, tr: tr}
	if _, err := f.assemble(); err != nil {
		return nil, err
	}
	return f, nil
}

// assemble builds a cluster over the current devices, attaches the manifest
// store and recovers the namespace from it.
func (f *fleet) assemble() (*difs.RecoveryReport, error) {
	c, err := difs.NewCluster(clusterConfig())
	if err != nil {
		return nil, err
	}
	c.Instrument(f.reg, nil)
	for _, d := range f.devs {
		c.AddNode(d)
	}
	if _, err := c.AttachMeta(f.metaH); err != nil {
		return nil, fmt.Errorf("attach manifests: %w", err)
	}
	rep, err := c.Recover()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	f.c = c
	return rep, nil
}

// restart stops the cluster and starts it again over what survives a
// process restart: the manifest store and the devices. RAM and in-memory
// flash devices survive as they are (the hardware outlives the process);
// durable devices are closed, and each node's store is reopened and its
// device rebuilt from it with core.OpenDurable.
func (f *fleet) restart() (*difs.RecoveryReport, error) {
	if err := f.metaH.Close(); err != nil {
		return nil, err
	}
	if f.kind == fleetDurable {
		for i, d := range f.durables {
			if err := d.Close(); err != nil {
				return nil, fmt.Errorf("node %d close: %w", i, err)
			}
			if err := f.nodeH[i].Close(); err != nil {
				return nil, err
			}
		}
		for i := range f.durables {
			f.nodeH[i] = &storeProbe{inner: f.nodeSt[i].Reopen(), tr: f.tr}
			d, err := core.OpenDurable(coreConfig(f.kind, i), sim.NewEngine(), f.nodeH[i], core.DurableOptions{})
			if err != nil {
				return nil, fmt.Errorf("node %d reopen: %w", i, err)
			}
			if rs := d.ReplayStats(); rs.DroppedPages > 0 {
				return nil, fmt.Errorf("node %d reopen dropped %d pages", i, rs.DroppedPages)
			}
			d.Instrument(f.reg, nil)
			f.durables[i] = d
			p, err := newDevProbe(d, i, f.tr)
			if err != nil {
				return nil, err
			}
			f.devs[i] = p
		}
	}
	f.metaH = &storeProbe{inner: f.meta.Reopen(), tr: f.tr}
	return f.assemble()
}

// settle runs repair passes until nothing is pending or a pass neither
// copies a chunk nor shrinks the queue, and returns the copies made. While
// a node is crashed the second condition ends it: a chunk with a replica on
// the dark node stays queued even once its live replicas are back to full
// strength.
//
// Passes are serial Repair calls, the path salsrv takes at start-up and on
// a client's OpRepair.
func (f *fleet) settle() (int, error) {
	copies := 0
	for pass, pending := 0, f.c.PendingRepairs(); pending > 0; pass++ {
		if pass == 64 {
			return copies, fmt.Errorf("repair did not converge: %d pending after %d passes", pending, pass)
		}
		n, err := f.c.Repair()
		copies += n
		var re *difs.RepairError
		if err != nil && (!errors.As(err, &re) || len(re.Lost) > 0) {
			return copies, err
		}
		left := f.c.PendingRepairs()
		if n == 0 && left >= pending {
			break
		}
		pending = left
	}
	return copies, nil
}

// mediaBytes is what the fleet's storage media has programmed so far: fPage
// programs at the fresh fPage data size on flash fleets, bytes written
// through the device interface on RAM fleets. Restart replay programs are
// part of the simulation, not of the workload, so callers take deltas only
// over windows without a restart.
func (f *fleet) mediaBytes() uint64 {
	if f.kind.flash() {
		return flashBytes(f.reg.Counter("core.flash_writes").Value())
	}
	var b uint64
	for _, d := range f.devs {
		b += d.writeBytes.Load()
	}
	return b
}

func flashBytes(programs uint64) uint64 { return programs * rber.FPageSize }

func perUserByte(media, user uint64) float64 {
	if user == 0 {
		return 0
	}
	return float64(media) / float64(user)
}

// devCalls sums the device-interface calls and bytes written so far.
func (f *fleet) devCalls() (reads, writes, writeBytes uint64) {
	for _, d := range f.devs {
		reads += d.reads.Load()
		writes += d.writes.Load()
		writeBytes += d.writeBytes.Load()
	}
	return
}

func (f *fleet) counter(name string) uint64 { return f.reg.Counter(name).Value() }

// devProbe stands between the cluster and one device. It always counts
// calls (two atomic adds per oPage); on a traced run it also times them.
// It forwards every optional interface the program asserts on devices:
// blockdev.Drainer, blockdev.WearReporter and the Engine accessor difs
// uses for retry backoff.
type devProbe struct {
	inner blockdev.Device
	drain blockdev.Drainer
	wear  blockdev.WearReporter
	eng   interface{ Engine() *sim.Engine }
	node  int
	tr    *tracer

	reads, writes, writeBytes atomic.Uint64
}

func newDevProbe(dev blockdev.Device, node int, tr *tracer) (*devProbe, error) {
	p := &devProbe{inner: dev, node: node, tr: tr}
	var ok bool
	if p.drain, ok = dev.(blockdev.Drainer); !ok {
		return nil, fmt.Errorf("node %d: device %T is not a blockdev.Drainer", node, dev)
	}
	if p.wear, ok = dev.(blockdev.WearReporter); !ok {
		return nil, fmt.Errorf("node %d: device %T is not a blockdev.WearReporter", node, dev)
	}
	p.eng, _ = dev.(interface{ Engine() *sim.Engine })
	return p, nil
}

func (p *devProbe) Minidisks() []blockdev.MinidiskInfo { return p.inner.Minidisks() }
func (p *devProbe) Notify(fn func(blockdev.Event))     { p.inner.Notify(fn) }
func (p *devProbe) Trim(md blockdev.MinidiskID, lba int) error {
	return p.inner.Trim(md, lba)
}
func (p *devProbe) Release(md blockdev.MinidiskID) error { return p.drain.Release(md) }
func (p *devProbe) Wear() blockdev.WearInfo              { return p.wear.Wear() }

// Engine forwards the simulation engine; a device without one reports nil,
// which difs treats exactly like a device without the accessor.
func (p *devProbe) Engine() *sim.Engine {
	if p.eng == nil {
		return nil
	}
	return p.eng.Engine()
}

func (p *devProbe) Read(md blockdev.MinidiskID, lba int, buf []byte) error {
	p.reads.Add(1)
	if !p.tr.on() {
		return p.inner.Read(md, lba, buf)
	}
	t0 := time.Now()
	err := p.inner.Read(md, lba, buf)
	p.tr.device(false, p.node, md, lba, time.Since(t0))
	return err
}

func (p *devProbe) Write(md blockdev.MinidiskID, lba int, buf []byte) error {
	p.writes.Add(1)
	p.writeBytes.Add(uint64(len(buf)))
	if !p.tr.on() {
		return p.inner.Write(md, lba, buf)
	}
	t0 := time.Now()
	err := p.inner.Write(md, lba, buf)
	p.tr.device(true, p.node, md, lba, time.Since(t0))
	return err
}

// storeProbe stands between a durable layer and its store: counts always,
// spans on traced runs.
type storeProbe struct {
	inner             store.Store
	tr                *tracer
	gets, puts, lists atomic.Uint64
}

func (s *storeProbe) Get(key string) ([]byte, error) {
	s.gets.Add(1)
	if !s.tr.on() {
		return s.inner.Get(key)
	}
	t0 := time.Now()
	b, err := s.inner.Get(key)
	s.tr.store(opGet, time.Since(t0))
	return b, err
}

func (s *storeProbe) Put(key string, data []byte) error {
	s.puts.Add(1)
	if !s.tr.on() {
		return s.inner.Put(key, data)
	}
	t0 := time.Now()
	err := s.inner.Put(key, data)
	s.tr.store(opPut, time.Since(t0))
	return err
}

func (s *storeProbe) List(prefix string) ([]string, error) {
	s.lists.Add(1)
	if !s.tr.on() {
		return s.inner.List(prefix)
	}
	t0 := time.Now()
	keys, err := s.inner.List(prefix)
	s.tr.store(opList, time.Since(t0))
	return keys, err
}

func (s *storeProbe) Delete(key string) error { return s.inner.Delete(key) }
func (s *storeProbe) Sync() error             { return s.inner.Sync() }
func (s *storeProbe) Close() error            { return s.inner.Close() }
