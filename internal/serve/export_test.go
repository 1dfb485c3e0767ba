package serve

import (
	"bytes"
	"context"

	"sierra/internal/appfile"
	"sierra/internal/batch"
)

// AnalyzeRevision runs one job body on raw under ctx, as the dispatcher
// runs an accepted submission, without the HTTP surface or the queue.
func (s *Server) AnalyzeRevision(ctx context.Context, raw []byte) ([]byte, error) {
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	return s.analyze(ctx, &jobState{digest: batch.RawDigest(raw), name: app.Name, raw: raw, app: app})
}
