package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mpicollperf/internal/atomicfile"
	"mpicollperf/internal/cluster"
)

// This file is the measurement cache: content-addressed keys covering the
// complete experiment identity, an in-memory map under one mutex, and an
// optional JSON-file disk layer.

// cacheKeyBlob is the canonical serialisation hashed into a cache key. It
// spells out every input that determines a measurement — the full cluster
// profile (including the simulator's noise seed), the normalised
// measurement settings, and the point — so any change to any of them
// produces a different key. Algorithms are keyed by name, keeping keys
// stable across enum reorderings.
type cacheKeyBlob struct {
	Version  int
	Profile  cluster.Profile
	Settings Settings
	Kind     Kind
	Alg      string
	Procs    int
	MsgBytes int
	SegSize  int
	Gather   int
	// Spec names a PointCollective's operation; omitted for the other
	// kinds, so their keys are unchanged.
	Spec string `json:",omitempty"`
}

// cacheKeyVersion invalidates every existing cache entry when the
// measurement methodology or the simulator's timing model changes
// incompatibly; bump it on such changes.
const cacheKeyVersion = 1

func cacheKey(pr cluster.Profile, pt Point, set Settings) string {
	var spec string
	if pt.Kind == PointCollective {
		spec = pt.Op.Name
	}
	blob, err := json.Marshal(cacheKeyBlob{
		Version:  cacheKeyVersion,
		Profile:  pr,
		Settings: set.withDefaults(),
		Kind:     pt.Kind,
		Alg:      pt.Alg.String(),
		Procs:    pt.Procs,
		MsgBytes: pt.MsgBytes,
		SegSize:  pt.SegSize,
		Gather:   pt.GatherBytes,
		Spec:     spec,
	})
	if err != nil {
		// Every field is a plain value; Marshal cannot fail on them.
		panic(fmt.Sprintf("experiment: cache key: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// Cache is a content-addressed measurement store shared by sweeps. Keys
// cover the complete experiment identity, so a cache never returns a
// measurement for a different profile, point, or methodology — reusing
// one cache across clusters and tools is safe.
//
// A Cache always holds entries in memory, behind one mutex that guards
// only the map; NewDiskCache additionally persists each entry as a JSON
// file named <key>.json in a directory, so separate process invocations
// (`mpicollperf calibrate`, then `decision` over the same grid) skip
// already-measured points. File I/O runs outside the lock: keys are
// content addresses, so two workers racing to load or store the same
// entry read or write the same bytes. All methods are safe for
// concurrent use.
type Cache struct {
	mu  sync.Mutex
	mem map[string]Measurement
	dir string
}

// NewCache returns an in-memory cache.
func NewCache() *Cache {
	return &Cache{mem: make(map[string]Measurement)}
}

// NewDiskCache returns a cache backed by dir, creating it if necessary.
func NewDiskCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiment: cache dir: %w", err)
	}
	c := NewCache()
	c.dir = dir
	return c, nil
}

// Len reports the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

func (c *Cache) get(key string) (Measurement, bool) {
	c.mu.Lock()
	m, ok := c.mem[key]
	c.mu.Unlock()
	if ok || c.dir == "" {
		return m, ok
	}
	data, err := os.ReadFile(filepath.Join(c.dir, key+".json"))
	if err != nil {
		return Measurement{}, false
	}
	if err := json.Unmarshal(data, &m); err != nil {
		// A truncated or foreign file is treated as a miss; the fresh
		// measurement will overwrite it.
		return Measurement{}, false
	}
	c.mu.Lock()
	c.mem[key] = m
	c.mu.Unlock()
	return m, true
}

func (c *Cache) put(key string, m Measurement) {
	c.mu.Lock()
	c.mem[key] = m
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	data, err := json.Marshal(m)
	if err != nil {
		return
	}
	// Best effort: a failed write only costs a later re-measurement.
	_ = atomicfile.WriteFile(filepath.Join(c.dir, key+".json"), data, 0o644)
}
