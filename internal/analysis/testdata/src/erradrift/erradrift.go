// Fixture for the erradrift analyzer: errors from the repository and
// wire write paths must be consumed; Close is exempt.
package erradrift

import (
	"cqp/internal/repository"
	"cqp/internal/wire"
)

func dropWrite(w *wire.Writer, m wire.Message) {
	w.Write(m) // want `error from wire\.Write discarded`
}

func blankWrite(w *wire.Writer, m wire.Message) {
	_ = w.Write(m) // want `error from wire\.Write discarded`
}

func deferredWrite(w *wire.Writer, m wire.Message) {
	defer w.Write(m) // want `error from wire\.Write discarded`
}

func handledWrite(w *wire.Writer, m wire.Message) error {
	if err := w.Write(m); err != nil {
		return err
	}
	return nil
}

func dropRead(r *wire.Reader) {
	r.Read() // want `error from wire\.Read discarded`
}

func capturedRead(r *wire.Reader) (wire.Message, error) {
	return r.Read()
}

func dropSync(r *repository.Repository) {
	r.Sync() // want `error from repository\.Sync discarded`
}

func handledSync(r *repository.Repository) error {
	return r.Sync()
}

// closeExempt: teardown paths routinely discard Close errors after a
// prior failure; the analyzer leaves them alone.
func closeExempt(r *repository.Repository) {
	defer r.Close()
}
