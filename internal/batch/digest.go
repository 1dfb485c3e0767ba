package batch

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"

	"sierra/internal/apk"
	"sierra/internal/appfile"
)

// cacheEpoch versions the cache-key scheme itself. Bump it when the
// analysis changes in ways the options fingerprint cannot express
// (e.g. a pipeline bug fix that alters results for identical inputs),
// so persisted DirCache entries from older binaries are never returned.
const cacheEpoch = "sierra-cache/3"

// AppDigest returns the content digest of an app: the SHA-256 of its
// canonical appfile serialization. Two apps with identical manifests,
// layouts, and (non-framework) code digest identically, and the
// appfile round-trip property — Parse(Dump(app)) analyzes identically
// to app — is what entitles the batch cache to treat the digest as a
// proxy for analysis results. Digest apps before analyzing them:
// harness generation mutates the program.
func AppDigest(app *apk.App) (string, error) {
	raw, err := appfile.Bytes(app)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}

// RawDigest returns the SHA-256 of raw serialized bytes (e.g. an .app
// file read from disk, hashed without a parse round-trip).
func RawDigest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Key assembles a cache key from an app digest and the analysis-option
// parts that influence the result (policy name, budgets, toggles —
// anything that changes the serialized job output must appear here).
// The epoch prefix keys out entries written by incompatible versions.
func Key(appDigest string, optionParts ...string) string {
	return cacheEpoch + "|" + appDigest + "|" + strings.Join(optionParts, "|")
}
