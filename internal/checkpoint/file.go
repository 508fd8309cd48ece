package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// retrySleep is time.Sleep, replaceable in tests so retry backoff is
// observable without slowing the suite.
var retrySleep = time.Sleep

// Save atomically writes a framed checkpoint to path: the bytes go to a
// temp file in the same directory, are synced, are renamed over the
// destination, and the parent directory is synced so the rename itself is
// durable. A crash at any point leaves either the old snapshot or the new
// one — never a torn file, and never a rename sitting only in the page
// cache. The temp file is cleaned up on failure.
func Save(path string, data []byte) error {
	return SaveRetry(path, data, 1, 0)
}

// SaveRetry is Save with bounded retries for daemon use: a transient write
// error (disk pressure, an interrupted syscall, a directory briefly missing
// during rotation) is retried up to attempts times with exponential backoff
// starting at backoff. Every error is treated as retryable — a last-gasp
// checkpoint is exactly the write that should try hardest — and the bounded
// attempt count keeps the caller's shutdown path from hanging. The returned
// error joins every attempt's failure so none is silently lost.
func SaveRetry(path string, data []byte, attempts int, backoff time.Duration) error {
	if attempts < 1 {
		attempts = 1
	}
	var errs []error
	for try := 0; try < attempts; try++ {
		if try > 0 && backoff > 0 {
			retrySleep(backoff << (try - 1))
		}
		err := saveOnce(path, data)
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("attempt %d: %w", try+1, err))
	}
	return errors.Join(errs...)
}

func saveOnce(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()        //bigmap:err-ok best-effort teardown of a temp file already being abandoned for an earlier error
		os.Remove(tmpName) //bigmap:err-ok a leaked .tmp file is wasted disk, not wrong state; the write error is what the caller sees
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName) //bigmap:err-ok best-effort cleanup; the close failure is the error that reaches the caller
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName) //bigmap:err-ok best-effort cleanup; the rename failure is the error that reaches the caller
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	if err := syncDir(dir); err != nil {
		// The data file is safely in place; only the directory entry's
		// durability is in doubt. Report it — the caller's retry loop will
		// rewrite, and a crash before then loses at most the rename.
		return fmt.Errorf("checkpoint: sync dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() //bigmap:err-ok read-only directory fd; Sync's result below carries the durability verdict
	return d.Sync()
}

// LoadFuzzer reads and decodes a single-instance checkpoint from path.
func LoadFuzzer(path string) (*FuzzerState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return DecodeFuzzer(data)
}

// LoadCampaign reads and decodes a multi-instance checkpoint from path.
func LoadCampaign(path string) (*CampaignState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return DecodeCampaign(data)
}
