package registry

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"swsketch/internal/binenc"
	"swsketch/internal/trace"
)

// Spill files carry everything needed to resurrect a tenant in a
// fresh process: the tenant ID, its declarative config, its ingest
// clock, and the sketch's own binary snapshot. The format is
// versioned with a magic number like the core snapshot formats; v2
// appends the paired-framework split width DB after R and is written
// only when DB is set, and v3 appends the FD tuning (fd_buffer,
// fd_alpha) after DB and is written only when either is set, so every
// tenant on the default tuning keeps its v1 or v2 bytes. Older headers
// decode to the default tuning.
const (
	spillMagic   = uint64(0x544E4E54_00000001) // "TNNT" v1
	spillMagicV2 = uint64(0x544E4E54_00000002) // "TNNT" v2: v1 + DB
	spillMagicV3 = uint64(0x544E4E54_00000003) // "TNNT" v3: v2 + FDBuffer, FDAlpha
)

// spillExt is the spill-file suffix scanned at startup.
const spillExt = ".tenant"

// spillPath maps a tenant ID to its spill file. IDs are hex-encoded
// (they may contain path separators); very long IDs fall back to a
// SHA-256 digest so filenames stay bounded. The mapping needs no
// inverse — the ID is read back from the file header.
func (r *Registry) spillPath(id string) string {
	name := hex.EncodeToString([]byte(id))
	if len(name) > 128 {
		sum := sha256.Sum256([]byte(id))
		name = "x" + hex.EncodeToString(sum[:])
	}
	return filepath.Join(r.spillDir, name+spillExt)
}

// encodeSpill serialises the tenant header plus the sketch snapshot.
// Caller holds t.mu.
func encodeSpill(t *Tenant) ([]byte, error) {
	m, ok := t.sk.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("registry: %s does not support snapshots", t.algo)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := binenc.NewWriter()
	c := t.cfg
	magic := spillMagic
	if c.FDBuffer != 0 || c.FDAlpha != 0 {
		magic = spillMagicV3
	} else if c.DB != 0 {
		magic = spillMagicV2
	}
	w.U64(magic)
	w.Blob([]byte(t.id))
	w.Blob([]byte(c.Framework))
	w.Blob([]byte(c.Window))
	w.F64(c.Size)
	w.Int(c.D)
	w.Int(c.Ell)
	w.Int(c.B)
	w.F64(c.Eps)
	w.Int(int(c.Seed))
	w.Int(c.L)
	w.F64(c.R)
	if magic != spillMagic {
		w.Int(c.DB)
	}
	if magic == spillMagicV3 {
		w.Int(c.FDBuffer)
		w.F64(c.FDAlpha)
	}
	w.U64(t.updates.Load())
	w.F64(t.lastT)
	w.Bool(t.seen)
	w.Blob(blob)
	return w.Bytes(), nil
}

// spillHeader is the decoded prefix of a spill file.
type spillHeader struct {
	id      string
	cfg     Config
	updates uint64
	lastT   float64
	seen    bool
}

// decodeSpill parses a spill file, returning the header and the
// sketch snapshot blob.
func decodeSpill(data []byte) (spillHeader, []byte, error) {
	var h spillHeader
	r := binenc.NewReader(data)
	magic := r.U64()
	if r.Err() == nil && magic != spillMagic && magic != spillMagicV2 && magic != spillMagicV3 {
		return h, nil, fmt.Errorf("registry: not a tenant spill file (magic %#x)", magic)
	}
	h.id = string(r.Blob())
	h.cfg = Config{
		Framework: string(r.Blob()),
		Window:    string(r.Blob()),
		Size:      r.F64(),
		D:         r.Int(),
		Ell:       r.Int(),
		B:         r.Int(),
		Eps:       r.F64(),
		Seed:      int64(r.Int()),
		L:         r.Int(),
		R:         r.F64(),
	}
	if magic != spillMagic {
		h.cfg.DB = r.Int()
	}
	if magic == spillMagicV3 {
		h.cfg.FDBuffer = r.Int()
		h.cfg.FDAlpha = r.F64()
	}
	h.updates = r.U64()
	h.lastT = r.F64()
	h.seen = r.Bool()
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return h, nil, fmt.Errorf("registry: corrupt spill file: %w", err)
	}
	return h, blob, nil
}

// spill writes the tenant's state to disk and releases its in-memory
// sketch. Caller holds t.mu and has verified canSpill. On a write
// failure the tenant stays resident and the failure is counted.
func (r *Registry) spill(t *Tenant) bool {
	data, err := encodeSpill(t)
	if err == nil {
		err = writeFileAtomic(r.spillPath(t.id), data)
	}
	if err != nil {
		if r.spillErrors != nil {
			r.spillErrors.Inc()
		}
		return false
	}
	rows := t.sk.RowsStored()
	t.lastRows.Store(int64(rows))
	t.sk, t.serving = nil, nil
	t.spilled.Store(true)
	if r.evictSpilled != nil {
		r.evictSpilled.Inc()
	}
	if r.evictHook != nil {
		r.evictHook(t.id, true)
	}
	if r.tr.Enabled() {
		r.tr.EmitNote("registry", trace.KindTenantEvict, t.lastT, float64(rows), 1, t.id)
	}
	return true
}

// restore rebuilds a spilled tenant from its spill file: the sketch
// is reconstructed from the stored config and fed its binary
// snapshot, and the clock is reinstated. Caller holds t.mu. The spill
// file is removed on success (the in-memory state immediately
// diverges from it).
func (r *Registry) restore(t *Tenant) error {
	path := r.spillPath(t.id)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	h, blob, err := decodeSpill(data)
	if err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	if h.id != t.id {
		return fmt.Errorf("registry: restore %q: spill file belongs to %q", t.id, h.id)
	}
	sk, err := h.cfg.Build()
	if err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	u, ok := sk.(encoding.BinaryUnmarshaler)
	if !ok {
		return fmt.Errorf("registry: restore %q: %s lost snapshot support", t.id, sk.Name())
	}
	if err := u.UnmarshalBinary(blob); err != nil {
		return fmt.Errorf("registry: restore %q: %w", t.id, err)
	}
	t.sk = sk
	t.cfg = h.cfg
	t.updates.Store(h.updates)
	t.lastT, t.seen = h.lastT, h.seen
	t.lastRows.Store(int64(sk.RowsStored()))
	t.spilled.Store(false)
	_ = os.Remove(path)
	if r.restored != nil {
		r.restored.Inc()
	}
	if r.tr.Enabled() {
		r.tr.EmitNote("registry", trace.KindTenantRestore, t.lastT, float64(len(data)), 0, t.id)
	}
	return nil
}

// scanSpillDir registers every valid spill file as a spilled tenant,
// so a restarted process resumes its fleet lazily. Unreadable or
// foreign files are skipped (a shared directory may hold other
// artifacts); a corrupt file surfaces on the tenant's first Acquire
// instead of blocking startup.
func (r *Registry) scanSpillDir() error {
	entries, err := os.ReadDir(r.spillDir)
	if err != nil {
		return fmt.Errorf("registry: scan spill dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != spillExt {
			continue
		}
		data, err := os.ReadFile(filepath.Join(r.spillDir, e.Name()))
		if err != nil {
			continue
		}
		h, _, err := decodeSpill(data)
		if err != nil || h.id == "" || len(h.id) > MaxIDLen {
			continue
		}
		t := &Tenant{id: h.id, cfg: h.cfg, d: h.cfg.D, reg: r, algo: h.cfg.algoName()}
		t.updates.Store(h.updates)
		t.spilled.Store(true)
		t.touch()
		sh := r.shardFor(h.id)
		sh.mu.Lock()
		if _, ok := sh.tenants[h.id]; !ok {
			sh.tenants[h.id] = t
		}
		sh.mu.Unlock()
	}
	return nil
}

// writeFileAtomic writes data via a temp file + rename so a crashed
// spill never leaves a truncated file behind.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
