package ckptlog

import (
	"io"
	"os"
	"path/filepath"
)

// InstallFile atomically replaces path with what write produces: the
// bytes go to path+".tmp", which is fsynced and closed; then
// beforeRename (a crash point; may be nil) runs, the temp is renamed
// over path, and the directory is fsynced so the rename is durable. On
// any error the temp file is removed and path keeps its old content.
// It is the one write-temp-then-rename install in the module: journal
// and store compaction, the daemon's state file and flight-recorder
// dumps all go through it.
func InstallFile(path string, write func(io.Writer) error, beforeRename func()) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a successful one is harmless
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if beforeRename != nil {
		beforeRename()
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// WriteBytes adapts a byte slice to InstallFile's write callback.
func WriteBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// syncDir fsyncs a directory so a rename inside it is durable. Best
// effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
