package serve

// WAL integration: the durability half of the ingest plane. With
// WithWAL attached, every state-changing request appends a record to
// the per-shard write-ahead log BEFORE it mutates the registry, and
// RecoverWAL replays the log through the registry on startup so a
// crashed node rebuilds its tenant sketches bit-exactly (modulo the
// group-commit window). Spills and deletions release a tenant's
// records for truncation via the registry's evict hook.

import (
	"encoding"
	"encoding/json"
	"fmt"
	"net/http"

	"swsketch/internal/registry"
	"swsketch/internal/wal"
)

// WithWAL attaches a write-ahead log (opened, not yet replayed): rows,
// tenant creations/deletions, and snapshot restores are logged before
// they apply, and the registry's evictions release WAL records for
// truncation. Call RecoverWAL after NewServer and before serving —
// appends fail until the log has replayed.
func WithWAL(l *wal.Log) Option {
	return func(s *Server) {
		if l == nil {
			panic("serve: nil WAL")
		}
		s.wal = l
	}
}

// WAL returns the attached write-ahead log, or nil.
func (s *Server) WAL() *wal.Log { return s.wal }

// RecoverWAL replays the attached WAL through the tenant registry and
// enables appends. It must run after NewServer (so replayed rows for
// the adopted default tenant land in its fresh sketch) and before the
// server takes traffic. Corruption does not fail recovery: it is
// reported in the returned stats and on the health endpoints as
// degraded. Records the registry refused to apply are counted there
// too, as "failed". Without WithWAL it is a no-op.
func (s *Server) RecoverWAL() (wal.Stats, error) {
	if s.wal == nil {
		return wal.Stats{}, nil
	}
	st, err := s.wal.Replay(&registryApplier{s: s})
	if err != nil {
		return st, err
	}
	s.walFailed.Store(int64(st.Failed))
	if st.Damaged {
		s.walDamaged.Store(true)
	}
	return st, nil
}

// walAppendRows logs one validated row block; the caller holds the
// tenant and has NOT yet applied the block. A nil WAL is a no-op.
func (s *Server) walAppendRows(t *registry.Tenant, rows [][]float64, times []float64) *apiError {
	if s.wal == nil {
		return nil
	}
	if _, err := s.wal.AppendRows(t.ID(), t.Updates(), rows, times); err != nil {
		return errf(http.StatusInternalServerError, CodeInternal, "wal append: %v", err)
	}
	return nil
}

// registryApplier adapts the tenant registry to wal.Applier for
// replay-to-restore.
type registryApplier struct {
	s *Server
}

// Create rebuilds a logged tenant. A tenant that already exists — the
// spill-directory scan registered it, or a later duplicate record —
// is an intentional skip.
func (a *registryApplier) Create(tenant string, cfgJSON []byte) (bool, error) {
	var cfg registry.Config
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return false, fmt.Errorf("create %q: %w", tenant, err)
	}
	if _, err := a.s.treg.Create(tenant, cfg); err != nil {
		if err == registry.ErrExists {
			return false, nil
		}
		return false, fmt.Errorf("create %q: %w", tenant, err)
	}
	return true, nil
}

// Rows re-applies a logged row block when the tenant's committed
// update count matches the block's start: a spilled snapshot that
// already covers the block leaves Updates() past it (skip), and a
// gap means an intervening record was lost to truncation by design.
func (a *registryApplier) Rows(tenant string, start uint64, rows [][]float64, times []float64) (bool, error) {
	t, ok := a.s.treg.Get(tenant)
	if !ok {
		return false, nil // deleted later in the log, or released
	}
	if err := t.Acquire(); err != nil {
		return false, fmt.Errorf("rows %q: %w", tenant, err)
	}
	defer t.Release()
	if t.Updates() != start {
		return false, nil
	}
	if err := applyBatch(t.Sketch(), rows, times); err != nil {
		return false, fmt.Errorf("rows %q: %w", tenant, err)
	}
	t.Commit(len(rows), times[len(times)-1])
	return true, nil
}

// Snapshot re-applies a logged snapshot restore: the blob replaces the
// sketch state and the logged clock is reinstated.
func (a *registryApplier) Snapshot(tenant string, updates uint64, lastT float64, seen bool, blob []byte) (bool, error) {
	t, ok := a.s.treg.Get(tenant)
	if !ok {
		return false, nil
	}
	if err := t.Acquire(); err != nil {
		return false, fmt.Errorf("snapshot %q: %w", tenant, err)
	}
	defer t.Release()
	u, ok := t.Raw().(encoding.BinaryUnmarshaler)
	if !ok {
		return false, fmt.Errorf("snapshot %q: %s does not support snapshots", tenant, t.Raw().Name())
	}
	if err := u.UnmarshalBinary(blob); err != nil {
		return false, fmt.Errorf("snapshot %q: %w", tenant, err)
	}
	t.SetClock(updates, lastT, seen)
	return true, nil
}

// Delete re-applies a logged tenant deletion.
func (a *registryApplier) Delete(tenant string) (bool, error) {
	return a.s.treg.Delete(tenant), nil
}
