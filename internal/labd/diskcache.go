package labd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"jvmgc/internal/faultinject"
	"jvmgc/internal/telemetry"
)

// diskCache persists result bytes across daemon restarts, one file per
// content address under a flat directory. It is the durable tier behind
// the in-memory LRU: reads promote into memory, successful completions
// write through.
//
// Durability model:
//
//   - Atomic visibility: entries are written to a temp file in the same
//     directory, fsynced, then renamed into place. A crash mid-write
//     leaves at worst a stale temp file, never a half-visible entry.
//   - Self-verifying entries: each file carries a header with the
//     payload's SHA-256 and length. Truncation, bit rot, or any other
//     corruption is detected on read; the entry is logged, counted
//     (labd.cache.corruptions.detected), deleted, and the result is
//     transparently recomputed and rewritten by the caller's flight.
//
// Entries are keyed by the normalized spec hash, so a restart serves
// prior campaigns' results as byte-identical cache hits with zero warm-up
// simulations.
type diskCache struct {
	dir     string
	metrics *telemetry.Metrics
	chaos   *faultinject.Injector
}

// diskMagic versions the entry format; entries with any other first
// field are treated as corrupt.
const diskMagic = "labd-cache-v1"

// diskSuffix names finished entries; temp files use a dot prefix so a
// directory scan can ignore them.
const diskSuffix = ".res"

func newDiskCache(dir string, metrics *telemetry.Metrics, chaos *faultinject.Injector) (*diskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("labd: cache dir: %w", err)
	}
	return &diskCache{dir: dir, metrics: metrics, chaos: chaos}, nil
}

func (d *diskCache) path(key string) string {
	return filepath.Join(d.dir, key+diskSuffix)
}

// write persists one entry crash-safely: header+payload into a temp file
// in the cache directory, fsync, rename over the final name.
func (d *diskCache) write(key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	f, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	header := fmt.Sprintf("%s %s %d\n", diskMagic, hex.EncodeToString(sum[:]), len(payload))
	_, err = f.WriteString(header)
	if err == nil {
		_, err = f.Write(payload)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, d.path(key))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// read loads and verifies one entry. A missing entry is a plain miss; a
// corrupt or truncated one is detected, counted, logged, and removed so
// the caller recomputes it — a cache can always be rebuilt, so corruption
// costs one simulation, never a wrong answer.
func (d *diskCache) read(key string) ([]byte, bool) {
	raw, err := os.ReadFile(d.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	if err == nil {
		var payload []byte
		if payload, err = d.verify(raw); err == nil {
			return payload, true
		}
	}
	d.metrics.Add("labd.cache.corruptions.detected", 1)
	log.Printf("labd: cache entry %.12s… corrupt: %v (removed; recomputing)", key, err)
	os.Remove(d.path(key))
	return nil, false
}

// verify splits an entry into header and payload and checks the payload
// against the header's length and SHA-256. The chaos fault point flips a
// payload byte *before* verification, modelling media corruption — the
// checksum must catch it.
func (d *diskCache) verify(raw []byte) ([]byte, error) {
	nl := strings.IndexByte(string(raw[:min(len(raw), 128)]), '\n')
	if nl < 0 {
		return nil, errors.New("truncated header")
	}
	fields := strings.Fields(string(raw[:nl]))
	if len(fields) != 3 || fields[0] != diskMagic {
		return nil, fmt.Errorf("bad header %q", string(raw[:nl]))
	}
	wantSum, err := hex.DecodeString(fields[1])
	if err != nil || len(wantSum) != sha256.Size {
		return nil, errors.New("bad checksum field")
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, errors.New("bad length field")
	}
	payload := raw[nl+1:]
	d.chaos.Corrupt(FaultCacheCorrupt, payload)
	if len(payload) != wantLen {
		return nil, fmt.Errorf("truncated payload: %d of %d bytes", len(payload), wantLen)
	}
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], wantSum) {
		return nil, errors.New("checksum mismatch")
	}
	return payload, nil
}

// entries counts the finished entries on disk.
func (d *diskCache) entries() int {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), diskSuffix) {
			n++
		}
	}
	return n
}
